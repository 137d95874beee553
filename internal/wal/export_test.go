package wal

import "sync"

// OpFS is an FS over OS that logs every operation it is asked to make,
// the writes and syncs of the files it opened included, and runs Before
// ahead of each: a non-nil return fails that operation, which then
// never reaches OS. Tests count, order, block and fail the journal's
// durable operations through it, one journal at a time.
type OpFS struct {
	// Before, when set, runs ahead of each operation, on the goroutine
	// making it (an appender's Commit, the committer, the reclaimer); it
	// must be safe for concurrent use.
	Before func(Op) error

	mu  sync.Mutex
	ops []Op
}

// Op is one operation an OpFS was asked to make: Kind is "mkdir",
// "create", "openat", "write", "sync", "rename", "remove" or "syncdir",
// and Path the file or directory it acts on (a rename's target).
type Op struct {
	Kind, Path string
}

// Ops returns a copy of the log, oldest first.
func (o *OpFS) Ops() []Op {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]Op(nil), o.ops...)
}

func (o *OpFS) do(kind, path string) error {
	op := Op{kind, path}
	o.mu.Lock()
	o.ops = append(o.ops, op)
	o.mu.Unlock()
	if o.Before != nil {
		return o.Before(op)
	}
	return nil
}

func (o *OpFS) MkdirAll(dir string) error {
	if err := o.do("mkdir", dir); err != nil {
		return err
	}
	return OS{}.MkdirAll(dir)
}

func (o *OpFS) Create(path string) (File, error) {
	if err := o.do("create", path); err != nil {
		return nil, err
	}
	f, err := OS{}.Create(path)
	return o.file(path, f, err)
}

func (o *OpFS) OpenAt(path string, size int64) (File, error) {
	if err := o.do("openat", path); err != nil {
		return nil, err
	}
	f, err := OS{}.OpenAt(path, size)
	return o.file(path, f, err)
}

// file logs f's writes and syncs as operations on path.
func (o *OpFS) file(path string, f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return opFile{f, o, path}, nil
}

func (o *OpFS) Rename(from, to string) error {
	if err := o.do("rename", to); err != nil {
		return err
	}
	return OS{}.Rename(from, to)
}

func (o *OpFS) Remove(path string) error {
	if err := o.do("remove", path); err != nil {
		return err
	}
	return OS{}.Remove(path)
}

func (o *OpFS) SyncDir(dir string) error {
	if err := o.do("syncdir", dir); err != nil {
		return err
	}
	return OS{}.SyncDir(dir)
}

type opFile struct {
	File
	fs   *OpFS
	path string
}

func (f opFile) Write(p []byte) (int, error) {
	if err := f.fs.do("write", f.path); err != nil {
		return 0, err
	}
	return f.File.Write(p)
}

func (f opFile) Sync() error {
	if err := f.fs.do("sync", f.path); err != nil {
		return err
	}
	return f.File.Sync()
}
