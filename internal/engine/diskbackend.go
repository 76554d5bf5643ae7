package engine

import (
	"fmt"
	"strings"
	"sync"

	"orpheusdb/internal/engine/diskv"
)

// DiskBackend adapts the diskv append-only KV to the engine's Backend
// interface. Key layout inside the KV:
//
//	catalog/table/<id>   gob TableMeta, id as 16 hex digits
//	page/<id>/<page>     one heap page in the layout of pagecodec.go,
//	                     id 16 hex digits, page 8
//	meta/settings        gob map[string]string
//	meta/lsn             uint64 big-endian WAL low-water mark
//	meta/nextid          uint64 big-endian table-id counter
//
// Table ids (not names) key the pages, so a rename is a catalog-only write.
// diskv stages Put/Delete until Commit seals them with a commit frame, which
// is exactly the atomic-checkpoint contract Backend requires.
//
// A store written before the page layout existed holds gob-encoded pages.
// ReadPage reads either (decodePage tells them apart by the first byte),
// WritePage writes only the layout, and Compact re-encodes what is left as
// it copies — so such a store upgrades by being used and nothing selects a
// format.
type DiskBackend struct {
	kv *diskv.KV

	// enc is WritePage's encode buffer, reused from page to page (diskv
	// copies a value into its frame before Put returns).
	encMu sync.Mutex
	enc   []byte
}

// OpenDiskBackend opens (or creates) the single-file KV at path.
func OpenDiskBackend(path string) (*DiskBackend, error) {
	kv, err := diskv.Open(path)
	if err != nil {
		return nil, err
	}
	return &DiskBackend{kv: kv}, nil
}

const pageKeyPrefix = "page/"

// appendHex appends v in lower-case hex, zero-padded to at least width digits.
func appendHex(dst []byte, v uint64, width int) []byte {
	const digits = "0123456789abcdef"
	n := width
	for n < 16 && v>>(4*n) != 0 {
		n++
	}
	for i := n - 1; i >= 0; i-- {
		dst = append(dst, digits[v>>(4*i)&0xf])
	}
	return dst
}

func catalogKey(id uint64) string {
	return string(appendHex([]byte("catalog/table/"), id, 16))
}

// appendTablePagePrefix appends "page/<id>/", the prefix of a table's pages.
func appendTablePagePrefix(dst []byte, id uint64) []byte {
	return append(appendHex(append(dst, pageKeyPrefix...), id, 16), '/')
}

func tablePagePrefix(id uint64) string { return string(appendTablePagePrefix(nil, id)) }

func pageKey(id uint64, p int) string {
	var buf [len(pageKeyPrefix) + 16 + 1 + 8]byte
	return string(appendHex(appendTablePagePrefix(buf[:0], id), uint64(p), 8))
}

// Kind implements Backend.
func (b *DiskBackend) Kind() string { return "disk" }

// TableMetas implements Backend.
func (b *DiskBackend) TableMetas() ([]TableMeta, error) {
	var out []TableMeta
	for _, key := range b.kv.Keys("catalog/table/") {
		raw, ok, err := b.kv.Get(key)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		m, err := decodeTableMeta(raw)
		if err != nil {
			return nil, fmt.Errorf("engine: disk backend: %s: %w", key, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// PutTableMeta implements Backend.
func (b *DiskBackend) PutTableMeta(m TableMeta) error {
	raw, err := encodeTableMeta(m)
	if err != nil {
		return err
	}
	return b.kv.Put(catalogKey(m.ID), raw)
}

// DeleteTable implements Backend.
func (b *DiskBackend) DeleteTable(id uint64, pages int) error {
	if err := b.kv.Delete(catalogKey(id)); err != nil {
		return err
	}
	for p := 0; p < pages; p++ {
		if err := b.kv.Delete(pageKey(id, p)); err != nil {
			return err
		}
	}
	// Pages beyond the caller's count (e.g. staged but never committed)
	// cannot exist: page keys are only ever staged together with their
	// catalog entry in one commit. Sweep the prefix anyway for safety.
	for _, key := range b.kv.Keys(tablePagePrefix(id)) {
		if err := b.kv.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// WritePage implements Backend.
func (b *DiskBackend) WritePage(table uint64, page int, slots []Row) (int, error) {
	b.encMu.Lock()
	defer b.encMu.Unlock()
	raw, err := encodePage(b.enc[:0], slots)
	if err != nil {
		return 0, err
	}
	b.enc = raw
	if err := b.kv.Put(pageKey(table, page), raw); err != nil {
		return 0, err
	}
	return len(raw), nil
}

// ReadPage implements Backend.
func (b *DiskBackend) ReadPage(table uint64, page int) ([]Row, error) {
	key := pageKey(table, page)
	raw, ok, err := b.kv.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("engine: disk backend: missing %s", key)
	}
	return decodePage(raw)
}

// DeletePage implements Backend.
func (b *DiskBackend) DeletePage(table uint64, page int) error {
	return b.kv.Delete(pageKey(table, page))
}

// GetMeta implements Backend.
func (b *DiskBackend) GetMeta(key string) ([]byte, bool, error) { return b.kv.Get(key) }

// PutMeta implements Backend.
func (b *DiskBackend) PutMeta(key string, val []byte) error { return b.kv.Put(key, val) }

// Commit implements Backend: one fsynced commit frame seals the batch.
func (b *DiskBackend) Commit() error { return b.kv.Commit() }

// Maintain implements Backend: fold out garbage frames once overwrites have
// stranded enough of the file.
func (b *DiskBackend) Maintain() error {
	if !b.kv.ShouldCompact() {
		return nil
	}
	return b.Compact()
}

// Compact rewrites the file down to its live keys. Pages still in the gob
// format are re-encoded on the way, so the file that comes out holds the
// page layout only.
func (b *DiskBackend) Compact() error {
	return b.kv.Compact(func(key string, val []byte) ([]byte, error) {
		if !strings.HasPrefix(key, pageKeyPrefix) || !isLegacyPage(val) {
			return val, nil
		}
		slots, err := decodePage(val)
		if err != nil {
			return nil, err
		}
		return encodePage(nil, slots)
	})
}

// SizeBytes implements Backend.
func (b *DiskBackend) SizeBytes() int64 { return b.kv.Stats().FileBytes }

// Close implements Backend. Staged (uncommitted) writes are discarded.
func (b *DiskBackend) Close() error { return b.kv.Close() }

// Path returns the KV file path.
func (b *DiskBackend) Path() string { return b.kv.Path() }

// DiskOptions tunes OpenDisk.
type DiskOptions struct {
	// PageBudgetBytes caps the resident working set (0 = unlimited).
	PageBudgetBytes int64
}

// OpenDisk opens (or creates) a disk-backed database at path: heap pages and
// catalog live in the diskv file, and at most opts.PageBudgetBytes of pages
// are kept resident. The file is flocked until DB.CloseBackend.
func OpenDisk(path string, opts DiskOptions) (*DB, error) {
	b, err := OpenDiskBackend(path)
	if err != nil {
		return nil, err
	}
	db, err := OpenBackendDB(b, opts.PageBudgetBytes)
	if err != nil {
		b.Close()
		return nil, err
	}
	return db, nil
}

// IsDiskFile reports whether path holds a diskv-format store (as opposed to
// a gob snapshot). Missing files report false with no error.
func IsDiskFile(path string) (bool, error) {
	return diskv.Sniff(path)
}
