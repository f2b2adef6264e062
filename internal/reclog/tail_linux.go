package reclog

import (
	"fmt"
	"os"
	"syscall"
)

// lock takes f's exclusive lock, or fails with ErrInUse if another open
// of the file holds it. Closing f releases it.
func lock(f *os.File) error {
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrInUse, f.Name(), err)
	}
	return nil
}

// Map preallocates before it maps, so a full disk fails here with ENOSPC
// and never as a SIGBUS at a store into the mapping.
func (t *tail) Map(off int64, n int) ([]byte, error) {
	if err := t.unmap(); err != nil {
		return nil, err
	}
	if err := syscall.Fallocate(int(t.Fd()), 0, off, int64(n)); err != nil {
		return nil, fmt.Errorf("fallocate %s: %w", t.Name(), err)
	}
	win, err := syscall.Mmap(int(t.Fd()), off, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("mmap %s: %w", t.Name(), err)
	}
	t.win = win
	return win, nil
}

func (t *tail) unmap() error {
	if t.win == nil {
		return nil
	}
	err := syscall.Munmap(t.win)
	t.win = nil
	return err
}
