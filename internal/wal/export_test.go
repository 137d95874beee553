package wal

// SetRemoveFile swaps the segment unlink (the reclaimer's and Open's)
// for fn and returns what restores it, so this package's external tests
// can block or fail an unlink under a serving stack. Restore only once
// every journal the test opened is closed.
func SetRemoveFile(fn func(path string) error) (restore func()) {
	orig := removeFile
	removeFile = fn
	return func() { removeFile = orig }
}
