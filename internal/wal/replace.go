package wal

import (
	"os"
	"path/filepath"
)

// ReplaceFile replaces the file at path with data so that a reader — or
// the next open after a crash — sees the old contents or the new, never
// a mixture: the data goes to path+".tmp", which is then renamed over
// path. With fsync the temporary file is synced before the rename and
// the directory after it, so once ReplaceFile returns the new contents
// survive a power loss, and the rename can never land with no data
// behind it. Without fsync it costs a file write and a rename and
// nothing is synced. Every catalog and checkpoint in a dataset is
// written through here. If it fails, path is untouched and the
// temporary file is removed.
func ReplaceFile(path string, data []byte, fsync bool) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && fsync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if !fsync {
		return nil
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
