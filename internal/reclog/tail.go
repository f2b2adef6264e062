package reclog

import (
	"errors"
	"os"
)

// MapTail returns the File through which a Writer appends to f: it maps
// the file's tail, a window at a time, after preallocating it.
func MapTail(f *os.File) File { return &tail{File: f} }

type tail struct {
	*os.File
	win []byte // the current mapping, if any
}

func (t *tail) Sync(int64) error { return t.File.Sync() } // writes back every page stored to

func (t *tail) Close(end int64) error {
	return errors.Join(t.unmap(), t.Truncate(end), t.File.Close())
}
