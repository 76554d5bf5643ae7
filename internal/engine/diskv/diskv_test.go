package diskv

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, path string) *KV {
	t.Helper()
	kv, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return kv
}

func TestPutGetRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.odb")
	kv := openT(t, path)
	defer kv.Close()
	for i := 0; i < 100; i++ {
		if err := kv.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, ok, err := kv.Get(fmt.Sprintf("k%03d", i))
		if err != nil || !ok {
			t.Fatalf("Get k%03d: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("value-%d", i); string(v) != want {
			t.Fatalf("k%03d = %q, want %q", i, v, want)
		}
	}
	if _, ok, _ := kv.Get("absent"); ok {
		t.Fatal("Get(absent) reported a value")
	}
}

func TestReopenSeesCommittedState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.odb")
	kv := openT(t, path)
	kv.Put("a", []byte("1"))
	kv.Put("b", []byte("2"))
	kv.Commit()
	kv.Put("a", []byte("updated"))
	kv.Delete("b")
	kv.Put("c", []byte("3"))
	kv.Commit()
	kv.Close()

	kv = openT(t, path)
	defer kv.Close()
	if v, ok, _ := kv.Get("a"); !ok || string(v) != "updated" {
		t.Fatalf("a = %q ok=%v, want updated", v, ok)
	}
	if _, ok, _ := kv.Get("b"); ok {
		t.Fatal("deleted key b survived reopen")
	}
	if v, ok, _ := kv.Get("c"); !ok || string(v) != "3" {
		t.Fatalf("c = %q ok=%v", v, ok)
	}
	if got := kv.Keys(""); len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("Keys = %v", got)
	}
}

func TestUncommittedBatchRollsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.odb")
	kv := openT(t, path)
	kv.Put("stable", []byte("v1"))
	kv.Commit()
	// Staged but never committed: a crash (Close without Commit) discards it.
	kv.Put("stable", []byte("v2"))
	kv.Put("extra", []byte("x"))
	kv.Close()

	kv = openT(t, path)
	defer kv.Close()
	if v, ok, _ := kv.Get("stable"); !ok || string(v) != "v1" {
		t.Fatalf("stable = %q ok=%v, want pre-batch v1", v, ok)
	}
	if _, ok, _ := kv.Get("extra"); ok {
		t.Fatal("uncommitted key survived reopen")
	}
}

// TestTornTailTruncates cuts the file at every byte offset inside the last
// batch and asserts each cut recovers to exactly the previous commit point —
// the same kill-point discipline the WAL tests apply.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.odb")
	kv := openT(t, ref)
	kv.Put("a", []byte("alpha"))
	kv.Commit()
	commitPoint := kv.Stats().FileBytes
	kv.Put("b", []byte("beta"))
	kv.Put("a", []byte("alpha2"))
	kv.Commit()
	kv.Close()
	data, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}

	for cut := commitPoint + 1; cut < int64(len(data)); cut++ {
		cutPath := filepath.Join(dir, fmt.Sprintf("cut%d.odb", cut))
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		kv := openT(t, cutPath)
		if v, ok, _ := kv.Get("a"); !ok || string(v) != "alpha" {
			t.Fatalf("cut %d: a = %q ok=%v, want pre-crash alpha", cut, v, ok)
		}
		if _, ok, _ := kv.Get("b"); ok {
			t.Fatalf("cut %d: half-committed key b visible", cut)
		}
		if got := kv.Stats().FileBytes; got != commitPoint {
			t.Fatalf("cut %d: file not truncated to commit point: %d != %d", cut, got, commitPoint)
		}
		kv.Close()
	}
}

func TestCorruptHeaderRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.odb")
	if err := os.WriteFile(path, []byte("NOTAKVFILE------"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a bad magic")
	}
}

func TestCompactDropsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.odb")
	kv := openT(t, path)
	payload := bytes.Repeat([]byte("x"), 4096)
	for i := 0; i < 50; i++ {
		kv.Put("hot", payload) // each overwrite strands the previous frame
	}
	kv.Put("cold", []byte("keep"))
	kv.Commit()
	before := kv.Stats()
	if before.GarbageBytes == 0 {
		t.Fatal("overwrites produced no garbage")
	}
	if err := kv.Compact(nil); err != nil {
		t.Fatal(err)
	}
	after := kv.Stats()
	if after.GarbageBytes != 0 || after.FileBytes >= before.FileBytes {
		t.Fatalf("compact did not shrink: before=%+v after=%+v", before, after)
	}
	if v, ok, _ := kv.Get("hot"); !ok || !bytes.Equal(v, payload) {
		t.Fatal("hot value lost in compaction")
	}
	kv.Close()

	kv = openT(t, path)
	defer kv.Close()
	if v, ok, _ := kv.Get("cold"); !ok || string(v) != "keep" {
		t.Fatalf("cold = %q ok=%v after compact+reopen", v, ok)
	}
}

func TestCompactRefusesStagedWrites(t *testing.T) {
	kv := openT(t, filepath.Join(t.TempDir(), "kv.odb"))
	defer kv.Close()
	kv.Put("k", []byte("v"))
	if err := kv.Compact(nil); err == nil {
		t.Fatal("Compact accepted uncommitted writes")
	}
}

func TestFlockExcludesSecondOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "kv.odb")
	kv := openT(t, path)
	if _, err := Open(path); err == nil {
		t.Fatal("second Open of a locked store succeeded")
	}
	kv.Close()
	kv2 := openT(t, path) // lock released by Close
	kv2.Close()
}

func TestSniff(t *testing.T) {
	dir := t.TempDir()
	kvPath := filepath.Join(dir, "kv.odb")
	kv := openT(t, kvPath)
	kv.Commit()
	kv.Close()
	if ok, err := Sniff(kvPath); err != nil || !ok {
		t.Fatalf("Sniff(kv) = %v, %v", ok, err)
	}
	gobPath := filepath.Join(dir, "gob.odb")
	os.WriteFile(gobPath, []byte{0x1f, 0x8b, 0x00, 0x00}, 0o644)
	if ok, err := Sniff(gobPath); err != nil || ok {
		t.Fatalf("Sniff(gob) = %v, %v", ok, err)
	}
	if ok, err := Sniff(filepath.Join(dir, "missing")); err != nil || ok {
		t.Fatalf("Sniff(missing) = %v, %v", ok, err)
	}
}

func TestKeysPrefix(t *testing.T) {
	kv := openT(t, filepath.Join(t.TempDir(), "kv.odb"))
	defer kv.Close()
	kv.Put("page/t1/00000001", []byte("a"))
	kv.Put("page/t1/00000002", []byte("b"))
	kv.Put("page/t2/00000001", []byte("c"))
	kv.Put("catalog/table/t1", []byte("d"))
	kv.Commit()
	got := kv.Keys("page/t1/")
	if len(got) != 2 || got[0] != "page/t1/00000001" || got[1] != "page/t1/00000002" {
		t.Fatalf("Keys(page/t1/) = %v", got)
	}
}
