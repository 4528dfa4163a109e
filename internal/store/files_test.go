package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestFilesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFiles[pair](dir, pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("absent"); ok {
		t.Fatal("Get on empty store returned a value")
	}
	want := pair{A: 7, B: "journal"}
	if err := f.Put("alpha", want); err != nil {
		t.Fatal(err)
	}
	got, ok := f.Get("alpha")
	if !ok || got != want {
		t.Fatalf("Get = %+v, %v; want %+v", got, ok, want)
	}

	// A reopened store sees the same entries: the container survives the
	// encode/decode round trip byte-exactly.
	f2, err := NewFiles[pair](dir, pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := f2.Get("alpha"); !ok || got != want {
		t.Fatalf("reopened Get = %+v, %v", got, ok)
	}
}

func TestFilesListSortsAndDeleteIsIdempotent(t *testing.T) {
	f, err := NewFiles[pair](t.TempDir(), pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zeta", "alpha", "mid"} {
		if err := f.Put(name, pair{A: 1}); err != nil {
			t.Fatal(err)
		}
	}
	names, err := f.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "mid", "zeta"}) {
		t.Fatalf("List = %v, want sorted", names)
	}
	if err := f.Delete("mid"); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete("mid"); err != nil { // second delete: no such file is fine
		t.Fatalf("repeated Delete errored: %v", err)
	}
	if _, ok := f.Get("mid"); ok {
		t.Fatal("deleted entry still readable")
	}
}

func TestFilesRejectsInvalidNames(t *testing.T) {
	f, err := NewFiles[pair](t.TempDir(), pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", ".hidden", "a/b", "a b", "née"} {
		if err := f.Put(name, pair{}); err == nil {
			t.Errorf("Put(%q) accepted an invalid name", name)
		}
	}
}

func TestFilesDropsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	f, err := NewFiles[pair](dir, pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("alpha", pair{A: 9}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "alpha"+filesSuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // corrupt the payload under the checksum
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("alpha"); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry not removed from disk")
	}
}

func TestFilesSweepsOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	orphan := filepath.Join(dir, tmpPrefix+"leftover")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, []byte("crash debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFiles[pair](dir, pairCodec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphaned temp file survived NewFiles")
	}
}

// TestFilesCrashSafety maps a name to a mutation of a valid entry file;
// every one must read as absent, be removed, and heal on the next Put.
func TestFilesCrashSafety(t *testing.T) {
	corruptions := map[string]func(path string, data []byte) error{
		"truncated-header": func(path string, data []byte) error {
			return os.WriteFile(path, data[:3], 0o644)
		},
		"truncated-payload": func(path string, data []byte) error {
			return os.WriteFile(path, data[:len(data)-1], 0o644)
		},
		"flipped-payload-bit": func(path string, data []byte) error {
			data[len(data)-1] ^= 0x40
			return os.WriteFile(path, data, 0o644)
		},
		"wrong-magic": func(path string, data []byte) error {
			data[0] = 'X'
			return os.WriteFile(path, data, 0o644)
		},
		"empty": func(path string, data []byte) error {
			return os.WriteFile(path, nil, 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			f, err := NewFiles[pair](t.TempDir(), pairCodec{})
			if err != nil {
				t.Fatal(err)
			}
			want := pair{A: 1, B: "x"}
			if err := f.Put("entry", want); err != nil {
				t.Fatal(err)
			}
			path := f.path("entry")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := corrupt(path, data); err != nil {
				t.Fatal(err)
			}
			if _, ok := f.Get("entry"); ok {
				t.Fatal("corrupted file served a value")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("corrupted file was not removed: %v", err)
			}
			// The slot heals: rewrite and read back.
			if err := f.Put("entry", want); err != nil {
				t.Fatal(err)
			}
			if got, ok := f.Get("entry"); !ok || got != want {
				t.Fatalf("after rewrite: got %+v, %v", got, ok)
			}
		})
	}
}

// TestFilesSchemaRevisionSelfInvalidates pins the versioned header:
// entries written under one codec revision read as absent (and are
// dropped) under another, so a layout change can never decode stale
// bytes into garbage.
func TestFilesSchemaRevisionSelfInvalidates(t *testing.T) {
	dir := t.TempDir()
	f1, err := NewFiles[pair](dir, pairCodec{version: "pair-v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Put("entry", pair{A: 5, B: "old"}); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFiles[pair](dir, pairCodec{version: "pair-v2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f2.Get("entry"); ok {
		t.Fatal("stale schema revision served a value")
	}
	if _, err := os.Stat(f2.path("entry")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale entry was not removed: %v", err)
	}
}

// TestFilesRejectsRenamedFile pins the key-in-header check: copying a
// valid entry file onto another entry's name must not alias the two.
func TestFilesRejectsRenamedFile(t *testing.T) {
	f, err := NewFiles[pair](t.TempDir(), pairCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Put("alpha", pair{A: 11, B: "a"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.path("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f.path("beta"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Get("beta"); ok {
		t.Fatal("cross-linked file served under the wrong name")
	}
}
