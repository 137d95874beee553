package wal

import (
	"errors"
	"io"
	"os"
	"syscall"
)

// FS is the file system the journal and WriteFileAtomic change the disk
// through: every mkdir, create, reopen, write, sync, rename, remove and
// directory sync they make is one call on it or on a File it opened, so
// a test can see, count or fail the N-th durable operation. Readers
// (scanDir, OpenSegment, DirSource) read through os. Options.FS nil
// selects OS.
type FS interface {
	// MkdirAll creates dir and every parent it lacks.
	MkdirAll(dir string) error
	// Create makes a new file at path for writing; it fails if path
	// exists.
	Create(path string) (File, error)
	// OpenAt opens path for appending at offset size, creating it if
	// absent and cutting away whatever lies past size.
	OpenAt(path string, size int64) (File, error)
	Rename(from, to string) error
	Remove(path string) error
	// SyncDir fsyncs directory dir, so a create, rename or remove in it
	// survives a crash.
	SyncDir(dir string) error
}

// File is a file an FS opened for writing.
type File interface {
	io.WriteCloser
	Sync() error
}

// OS is the operating system's FS: the one path through which this
// package writes to disk. Its SyncDir lets through the EINVAL or ENOTSUP
// of a filesystem that cannot fsync directories.
type OS struct{}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) Create(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) OpenAt(path string, size int64) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (OS) Rename(from, to string) error { return os.Rename(from, to) }

func (OS) Remove(path string) error { return os.Remove(path) }

func (OS) SyncDir(dir string) error { return syncDir(dir, (*os.File).Sync) }

// syncDir fsyncs dir through fsync, which a test replaces with one that
// fails. A filesystem that cannot fsync directories answers EINVAL or
// ENOTSUP; that is not an error.
func syncDir(dir string, fsync func(*os.File) error) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = fsync(d)
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, syscall.EINVAL) || errors.Is(err, syscall.ENOTSUP) {
		return nil
	}
	return err
}
