//go:build !linux

package reclog

import (
	"fmt"
	"os"
	"runtime"
)

// lock does nothing: a log cannot be appended to here, so a second opener
// cannot cut it under a first one's mapping.
func lock(*os.File) error { return nil }

// Map fails: the preallocated tail needs Linux. Replay works anywhere.
func (t *tail) Map(int64, int) ([]byte, error) {
	return nil, fmt.Errorf("appending to %s needs fallocate and a shared mapping (Linux), not %s", t.Name(), runtime.GOOS)
}

func (t *tail) unmap() error { return nil }
