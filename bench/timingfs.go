package main

import (
	"sync"
	"time"

	"fdnull/internal/iox"
)

// ioStat accumulates one kind of filesystem call.
type ioStat struct {
	calls int64
	bytes int64
	ns    []int64
}

func (s *ioStat) add(bytes int, d time.Duration) {
	s.calls++
	s.bytes += int64(bytes)
	s.ns = append(s.ns, int64(d))
}

func (s *ioStat) total() int64 {
	var t int64
	for _, d := range s.ns {
		t += d
	}
	return t
}

// timingFS wraps an iox.FS and times the three calls a durable commit
// makes — File.Write, File.Sync, FS.Rename — recording each as a count,
// a byte total and a duration sample, and as an iox.* span under
// whatever span is open on rec. Everything else passes through. It is
// injected through DurableOptions.FS on the twin store of the traced
// run; the daemon itself always runs on iox.OS.
type timingFS struct {
	iox.FS
	rec *recorder

	mu                  sync.Mutex
	write, sync, rename ioStat
}

func newTimingFS(inner iox.FS, rec *recorder) *timingFS {
	return &timingFS{FS: inner, rec: rec}
}

// snapshot returns copies of the three accumulators.
func (t *timingFS) snapshot() (write, sync, rename ioStat) {
	t.mu.Lock()
	defer t.mu.Unlock()
	cp := func(s ioStat) ioStat {
		s.ns = append([]int64(nil), s.ns...)
		return s
	}
	return cp(t.write), cp(t.sync), cp(t.rename)
}

// reset forgets everything recorded so far (the preload's I/O is not
// part of the measured stream).
func (t *timingFS) reset() {
	t.mu.Lock()
	t.write, t.sync, t.rename = ioStat{}, ioStat{}, ioStat{}
	t.mu.Unlock()
}

func (t *timingFS) record(s *ioStat, name string, bytes int, fn func() error) error {
	id := t.rec.begin(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.rec.end(id)
	t.mu.Lock()
	s.add(bytes, d)
	t.mu.Unlock()
	return err
}

func (t *timingFS) wrap(f iox.File, err error) (iox.File, error) {
	if err != nil {
		return nil, err
	}
	return &timingFile{File: f, fs: t}, nil
}

func (t *timingFS) Open(name string) (iox.File, error)   { return t.wrap(t.FS.Open(name)) }
func (t *timingFS) Create(name string) (iox.File, error) { return t.wrap(t.FS.Create(name)) }
func (t *timingFS) OpenRW(name string) (iox.File, error) { return t.wrap(t.FS.OpenRW(name)) }

func (t *timingFS) Rename(oldpath, newpath string) error {
	return t.record(&t.rename, "iox.rename", 0, func() error { return t.FS.Rename(oldpath, newpath) })
}

type timingFile struct {
	iox.File
	fs *timingFS
}

func (f *timingFile) Write(p []byte) (n int, err error) {
	err = f.fs.record(&f.fs.write, "iox.write", len(p), func() error {
		n, err = f.File.Write(p)
		return err
	})
	return n, err
}

func (f *timingFile) Sync() error {
	return f.fs.record(&f.fs.sync, "iox.sync", 0, f.File.Sync)
}
