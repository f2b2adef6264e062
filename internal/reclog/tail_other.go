//go:build !linux

package reclog

import (
	"fmt"
	"runtime"
)

// Map fails: the preallocated tail needs Linux. Replay works anywhere.
func (t *tail) Map(int64, int) ([]byte, error) {
	return nil, fmt.Errorf("appending to %s needs fallocate and a shared mapping (Linux), not %s", t.Name(), runtime.GOOS)
}

func (t *tail) unmap() error { return nil }
