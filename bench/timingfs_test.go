package main

import (
	"os"
	"path/filepath"
	"testing"

	"fdnull/internal/iox"
)

func TestTimingFSCountsWritesSyncsAndRenames(t *testing.T) {
	dir := t.TempDir()
	rec := newRecorder()
	fs := newTimingFS(iox.OS, rec)

	root := rec.begin("store.insert")
	f, err := fs.Create(filepath.Join(dir, "seg.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(filepath.Join(dir, "seg.tmp"), filepath.Join(dir, "seg")); err != nil {
		t.Fatal(err)
	}
	rec.end(root)

	writes, syncs, renames := fs.snapshot()
	if writes.calls != 2 || writes.bytes != 11 || len(writes.ns) != 2 {
		t.Fatalf("writes: %d calls, %d bytes, %d samples; want 2, 11, 2", writes.calls, writes.bytes, len(writes.ns))
	}
	if syncs.calls != 1 || renames.calls != 1 {
		t.Fatalf("syncs %d, renames %d; want 1 and 1", syncs.calls, renames.calls)
	}
	if writes.total() <= 0 || syncs.total() <= 0 {
		t.Fatal("durations were not recorded")
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg"))
	if err != nil || string(data) != "hello world" {
		t.Fatalf("the wrapper changed what reached the disk: %q, %v", data, err)
	}
	// Every timed call is an iox span under the span that was open.
	names := map[string]int{}
	for _, s := range rec.spans[1:] {
		if s.Parent != root {
			t.Fatalf("span %+v is not a child of the open root", s)
		}
		names[s.Name]++
	}
	if names["iox.write"] != 2 || names["iox.sync"] != 1 || names["iox.rename"] != 1 {
		t.Fatalf("iox spans: %v", names)
	}

	fs.reset()
	if w, s, r := fs.snapshot(); w.calls+s.calls+r.calls != 0 {
		t.Fatal("reset kept counts")
	}
}

func TestTimingFSReopenedFilesAreTimedToo(t *testing.T) {
	dir := t.TempDir()
	fs := newTimingFS(iox.OS, nil)
	path := filepath.Join(dir, "seg")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := fs.OpenRW(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("yz")); err != nil {
		t.Fatal(err)
	}
	if w, _, _ := fs.snapshot(); w.calls != 1 || w.bytes != 2 {
		t.Fatalf("write through OpenRW not counted: %+v", w)
	}
	if _, err := fs.Open(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("opening a missing file must fail through the wrapper as well")
	}
}
