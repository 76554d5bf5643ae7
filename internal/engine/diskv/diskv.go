// Package diskv is a single-file, append-only key-value store: the disk
// substrate of the engine's pluggable storage backend. The engine maps its
// catalog to `catalog/table/<name>` keys and its heap pages to
// `page/<table>/<page#>` keys, so bitmap-driven checkouts of cold data become
// ranged point reads against this file.
//
// The format follows the WAL's torn-tail discipline rather than a
// write-in-place B-tree: every record is an appended, CRC-framed (key, value)
// pair, and the key→offset index is rebuilt by one sequential scan on open.
// Two properties make this a sound checkpoint target:
//
//   - Atomic batches. Appended frames are staged until a COMMIT frame seals
//     them. Open replays the file up to the last durable COMMIT and truncates
//     everything after it — a torn tail and a half-flushed checkpoint look
//     identical and both roll back cleanly to the previous checkpoint, which
//     the store's write-ahead log then replays over.
//   - Last-writer-wins keys. Overwritten and deleted frames become garbage;
//     Compact rewrites the live set into a fresh file and atomically renames
//     it into place (with its own COMMIT frame, so a crash mid-compaction
//     leaves the old file untouched).
//
// Reads are plain preads and may run concurrently with appends: an index
// entry never points into an unwritten region, and the fd swap during
// compaction is serialized by the store's lock.
package diskv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// Magic identifies a diskv file. It is distinct from the gob snapshot format,
// so the store can sniff which backend a path holds.
var Magic = [4]byte{'O', 'D', 'K', 'V'}

const (
	formatVersion = 1
	headerLen     = 8 // magic + version + 3 reserved bytes

	kindPut    = 1
	kindDelete = 2
	kindCommit = 3

	// frameHeadLen is crc(4) + kind(1) + klen(2) + vlen(4).
	frameHeadLen = 11

	// MaxKeyLen bounds keys to the uint16 length field.
	MaxKeyLen = 1<<16 - 1
)

// ErrCorrupt marks a file whose committed prefix cannot be read — a bad
// header, an impossible frame, a CRC mismatch before the last commit point.
// Torn tails past the last commit are not corruption; Open repairs them.
var ErrCorrupt = errors.New("diskv: corrupt file")

type loc struct {
	valOff  int64 // offset of the value bytes
	vlen    uint32
	frameSz int64 // whole frame, for garbage accounting
}

// KV is one open store file. Get may run concurrently with Put/Delete/Commit
// from one writer goroutine; Compact and Close require external quiescence of
// writers (the engine serializes them under its checkpoint lock).
type KV struct {
	path string
	lock *os.File // flock on <path>.lock: one process per store

	mu       sync.RWMutex
	f        *os.File
	index    map[string]loc
	writeOff int64 // next append offset
	commit   int64 // offset just past the last COMMIT frame (durable point)
	staged   int   // frames appended since the last Commit
	garbage  int64 // bytes of dead frames in the committed region
	closed   bool
}

// Open opens (or creates) the store file at path, rebuilding the key index
// from the committed frame sequence and truncating any uncommitted or torn
// tail. The file is flocked via a sibling <path>.lock so two processes cannot
// interleave appends.
func Open(path string) (*KV, error) {
	lock, err := acquireLock(path + ".lock")
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		releaseLock(lock)
		return nil, fmt.Errorf("diskv: open %s: %w", path, err)
	}
	kv := &KV{path: path, lock: lock, f: f, index: make(map[string]loc)}
	if err := kv.recover(); err != nil {
		f.Close()
		releaseLock(lock)
		return nil, err
	}
	return kv, nil
}

// recover scans the file, rebuilding the index from the committed prefix and
// truncating everything after the last COMMIT frame.
func (kv *KV) recover() error {
	fi, err := kv.f.Stat()
	if err != nil {
		return fmt.Errorf("diskv: stat: %w", err)
	}
	if fi.Size() < headerLen {
		// New file, or one torn inside the header before its first sync:
		// either way there is no committed data; start fresh.
		if err := kv.writeHeader(); err != nil {
			return err
		}
		kv.writeOff, kv.commit = headerLen, headerLen
		return nil
	}
	var hdr [headerLen]byte
	if _, err := kv.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskv: read header: %w", err)
	}
	if [4]byte(hdr[:4]) != Magic {
		return fmt.Errorf("%w: %s: bad magic %q", ErrCorrupt, kv.path, hdr[:4])
	}
	if hdr[4] != formatVersion {
		return fmt.Errorf("%w: %s: unsupported version %d", ErrCorrupt, kv.path, hdr[4])
	}

	// Stage index updates per batch; only a COMMIT frame publishes them.
	staged := make(map[string]*loc) // nil loc = staged delete
	var stagedGarbage int64
	pos := int64(headerLen)
	size := fi.Size()
	var head [frameHeadLen]byte
	for pos+frameHeadLen <= size {
		if _, err := kv.f.ReadAt(head[:], pos); err != nil {
			break
		}
		wantCRC := binary.LittleEndian.Uint32(head[0:])
		kind := head[4]
		klen := int(binary.LittleEndian.Uint16(head[5:]))
		vlen := int64(binary.LittleEndian.Uint32(head[7:]))
		frameSz := int64(frameHeadLen) + int64(klen) + vlen
		if pos+frameSz > size {
			break // torn mid-frame
		}
		body := make([]byte, int(frameSz)-4) // kind..value, the CRC's coverage
		if _, err := kv.f.ReadAt(body, pos+4); err != nil {
			break
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			break // torn or bit-rotted tail; roll back to last commit
		}
		switch kind {
		case kindCommit:
			if klen != 0 || vlen != 0 {
				return fmt.Errorf("%w: %s: malformed commit frame at %d", ErrCorrupt, kv.path, pos)
			}
			for k, l := range staged {
				if old, ok := kv.index[k]; ok {
					kv.garbage += old.frameSz
					delete(kv.index, k)
				}
				if l != nil {
					kv.index[k] = *l
				}
			}
			kv.garbage += stagedGarbage
			staged = make(map[string]*loc)
			stagedGarbage = 0
			kv.commit = pos + frameSz
		case kindPut:
			key := string(body[7 : 7+klen])
			if prev := staged[key]; prev != nil {
				stagedGarbage += prev.frameSz
			}
			staged[key] = &loc{valOff: pos + frameHeadLen + int64(klen), vlen: uint32(vlen), frameSz: frameSz}
		case kindDelete:
			key := string(body[7 : 7+klen])
			if prev := staged[key]; prev != nil {
				stagedGarbage += prev.frameSz
			}
			staged[key] = nil
			stagedGarbage += frameSz // the tombstone itself is garbage once applied
		default:
			// An impossible kind before the commit point would be corruption,
			// but here it can only be tail garbage: stop scanning.
			pos = size // force the loop exit without advancing commit
		}
		if pos == size {
			break
		}
		pos += frameSz
	}
	// Discard the uncommitted / torn tail so the durable state is exactly the
	// last checkpoint the WAL knows about.
	if kv.commit == 0 {
		kv.commit = headerLen
	}
	if err := kv.f.Truncate(kv.commit); err != nil {
		return fmt.Errorf("diskv: truncate tail: %w", err)
	}
	kv.writeOff = kv.commit
	return nil
}

func (kv *KV) writeHeader() error {
	var hdr [headerLen]byte
	copy(hdr[:], Magic[:])
	hdr[4] = formatVersion
	if err := kv.f.Truncate(0); err != nil {
		return fmt.Errorf("diskv: init: %w", err)
	}
	if _, err := kv.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskv: init: %w", err)
	}
	return nil
}

// appendFrame writes one frame at the tail. Caller holds kv.mu.
func (kv *KV) appendFrame(kind byte, key string, val []byte) error {
	if kv.closed {
		return errors.New("diskv: use after Close")
	}
	if len(key) > MaxKeyLen {
		return fmt.Errorf("diskv: key too long (%d bytes)", len(key))
	}
	frame := make([]byte, frameHeadLen+len(key)+len(val))
	frame[4] = kind
	binary.LittleEndian.PutUint16(frame[5:], uint16(len(key)))
	binary.LittleEndian.PutUint32(frame[7:], uint32(len(val)))
	copy(frame[frameHeadLen:], key)
	copy(frame[frameHeadLen+len(key):], val)
	binary.LittleEndian.PutUint32(frame[0:], crc32.ChecksumIEEE(frame[4:]))
	if _, err := kv.f.WriteAt(frame, kv.writeOff); err != nil {
		return fmt.Errorf("diskv: append: %w", err)
	}
	kv.writeOff += int64(len(frame))
	return nil
}

// Put stages key=val. The write is not durable — and not visible to a
// reopened store — until Commit.
func (kv *KV) Put(key string, val []byte) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	valOff := kv.writeOff + frameHeadLen + int64(len(key))
	frameSz := int64(frameHeadLen) + int64(len(key)) + int64(len(val))
	if err := kv.appendFrame(kindPut, key, val); err != nil {
		return err
	}
	if old, ok := kv.index[key]; ok {
		kv.garbage += old.frameSz
	}
	kv.index[key] = loc{valOff: valOff, vlen: uint32(len(val)), frameSz: frameSz}
	kv.staged++
	return nil
}

// Delete stages removal of key. Missing keys are a no-op (no tombstone).
func (kv *KV) Delete(key string) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	old, ok := kv.index[key]
	if !ok {
		return nil
	}
	sz := int64(frameHeadLen) + int64(len(key))
	if err := kv.appendFrame(kindDelete, key, nil); err != nil {
		return err
	}
	kv.garbage += old.frameSz + sz
	delete(kv.index, key)
	kv.staged++
	return nil
}

// Commit seals every frame staged since the last Commit with a COMMIT frame
// and fsyncs. On return the batch is atomically durable: a crash at any
// point either preserves all of it or none of it.
func (kv *KV) Commit() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if err := kv.appendFrame(kindCommit, "", nil); err != nil {
		return err
	}
	if err := kv.f.Sync(); err != nil {
		return fmt.Errorf("diskv: fsync: %w", err)
	}
	kv.commit = kv.writeOff
	kv.staged = 0
	return nil
}

// Get returns the value under key from the live index (staged writes
// included). The returned slice is freshly allocated.
func (kv *KV) Get(key string) ([]byte, bool, error) {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	if kv.closed {
		return nil, false, errors.New("diskv: use after Close")
	}
	l, ok := kv.index[key]
	if !ok {
		return nil, false, nil
	}
	buf := make([]byte, l.vlen)
	if _, err := kv.f.ReadAt(buf, l.valOff); err != nil {
		return nil, false, fmt.Errorf("diskv: read %q: %w", key, err)
	}
	return buf, true, nil
}

// Has reports whether key exists without reading its value.
func (kv *KV) Has(key string) bool {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	_, ok := kv.index[key]
	return ok
}

// Keys returns the sorted keys matching prefix ("" for all).
func (kv *KV) Keys(prefix string) []string {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	out := make([]string, 0, len(kv.index))
	for k := range kv.index {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Stats describes the file's occupancy.
type Stats struct {
	Keys         int
	FileBytes    int64
	GarbageBytes int64
}

// Stats snapshots occupancy counters.
func (kv *KV) Stats() Stats {
	kv.mu.RLock()
	defer kv.mu.RUnlock()
	return Stats{Keys: len(kv.index), FileBytes: kv.writeOff, GarbageBytes: kv.garbage}
}

// ShouldCompact reports whether dead frames dominate the file (≥ half the
// bytes past the header, with a floor so small files never churn).
func (kv *KV) ShouldCompact() bool {
	st := kv.Stats()
	payload := st.FileBytes - headerLen
	return payload >= 1<<20 && st.GarbageBytes*2 >= payload
}

// Compact rewrites the live key set into a fresh file and renames it over the
// store path. It must not run with staged (uncommitted) writes — the rewrite
// persists the index as one committed batch, which would silently commit
// them. Readers are blocked for the duration.
//
// Each live value passes through rewrite (when not nil) on its way into the
// fresh file, and what rewrite returns is what the file holds afterwards: the
// store's owner brings values in an older encoding up to date at the one
// moment every value is being read and written anyway. val is only valid
// during the call; rewrite may return it unchanged. An error abandons the
// compaction and leaves the old file in place.
func (kv *KV) Compact(rewrite func(key string, val []byte) ([]byte, error)) error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return errors.New("diskv: use after Close")
	}
	if kv.staged != 0 {
		return errors.New("diskv: Compact with uncommitted writes")
	}
	tmpPath := kv.path + ".compact"
	tmp, err := os.Create(tmpPath)
	if err != nil {
		return fmt.Errorf("diskv: compact: %w", err)
	}
	cleanup := func() { tmp.Close(); os.Remove(tmpPath) }

	next := &KV{path: kv.path, f: tmp, index: make(map[string]loc, len(kv.index))}
	if err := next.writeHeader(); err != nil {
		cleanup()
		return err
	}
	next.writeOff = headerLen
	keys := make([]string, 0, len(kv.index))
	for k := range kv.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := make([]byte, 0)
	for _, k := range keys {
		l := kv.index[k]
		if int64(cap(buf)) < int64(l.vlen) {
			buf = make([]byte, l.vlen)
		}
		buf = buf[:l.vlen]
		if _, err := kv.f.ReadAt(buf, l.valOff); err != nil {
			cleanup()
			return fmt.Errorf("diskv: compact read %q: %w", k, err)
		}
		val := buf
		if rewrite != nil {
			if val, err = rewrite(k, buf); err != nil {
				cleanup()
				return fmt.Errorf("diskv: compact rewrite %q: %w", k, err)
			}
		}
		valOff := next.writeOff + frameHeadLen + int64(len(k))
		frameSz := int64(frameHeadLen) + int64(len(k)) + int64(len(val))
		if err := next.appendFrame(kindPut, k, val); err != nil {
			cleanup()
			return err
		}
		next.index[k] = loc{valOff: valOff, vlen: uint32(len(val)), frameSz: frameSz}
	}
	if err := next.appendFrame(kindCommit, "", nil); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("diskv: compact fsync: %w", err)
	}
	if err := os.Rename(tmpPath, kv.path); err != nil {
		cleanup()
		return fmt.Errorf("diskv: compact rename: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(kv.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	kv.f.Close()
	kv.f = tmp
	kv.index = next.index
	kv.writeOff = next.writeOff
	kv.commit = next.writeOff
	kv.garbage = 0
	return nil
}

// Sync fsyncs the file without committing (rarely needed; Commit syncs).
func (kv *KV) Sync() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	return kv.f.Sync()
}

// Close releases the file and its lock. Staged (uncommitted) writes are
// discarded by the next Open, mirroring a crash.
func (kv *KV) Close() error {
	kv.mu.Lock()
	defer kv.mu.Unlock()
	if kv.closed {
		return nil
	}
	kv.closed = true
	err := kv.f.Close()
	releaseLock(kv.lock)
	kv.lock = nil
	return err
}

// Path returns the store file path.
func (kv *KV) Path() string { return kv.path }

// acquireLock takes a non-blocking advisory flock on lockPath, mirroring the
// WAL's one-process-per-log guard.
func acquireLock(lockPath string) (*os.File, error) {
	f, err := os.OpenFile(lockPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskv: lock: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("diskv: %s is in use by another process (flock: %w)", lockPath, err)
	}
	return f, nil
}

func releaseLock(f *os.File) {
	if f == nil {
		return
	}
	syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
	f.Close()
}

// Sniff reports whether the file at path starts with the diskv magic. Missing
// and short files report false with no error; the caller decides their fate.
func Sniff(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	defer f.Close()
	var hdr [4]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return false, nil
	}
	return hdr == Magic, nil
}
