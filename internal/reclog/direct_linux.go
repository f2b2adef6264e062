package reclog

import (
	"errors"
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// DirectTail returns the File through which a durable Writer appends to f,
// an open log: the tail is an anonymous window, and each Sync writes only
// the sectors from the one holding the last synced byte to end, with direct
// I/O, then calls fdatasync. MapTail's fsync writes back a whole page, which
// the next store dirties again. A record not yet synced is in no page cache,
// so a crash of the process loses it; a durable writer acknowledged none.
// Where the file system refuses direct I/O, DirectTail returns MapTail(f).
func DirectTail(f *os.File) (File, error) {
	fd := int(f.Fd())
	flags, err := fcntl(fd, syscall.F_GETFL, 0)
	if err == nil {
		_, err = fcntl(fd, syscall.F_SETFL, flags|syscall.O_DIRECT)
	}
	d := &direct{f: f}
	if err == nil {
		d.sector, err = sectorOf(fd)
	}
	if errors.Is(err, syscall.EINVAL) {
		_, err = fcntl(fd, syscall.F_SETFL, flags)
		return MapTail(f), err
	} else if err != nil {
		return nil, fmt.Errorf("direct I/O on %s: %w", f.Name(), err)
	}
	return d, nil
}

type direct struct {
	f       *os.File
	sector  int64  // direct I/O offsets, lengths and addresses align to it
	buf     []byte // the window: an anonymous mapping, so page-aligned
	base    int64  // file offset of buf[0]
	written int64  // the file holds every stored byte before this offset
}

// Map writes out the old window's bytes before off and carries over the
// page at off, which Sync rewrites; the first window reads it from the file.
func (d *direct) Map(off int64, n int) ([]byte, error) {
	fd := int(d.f.Fd())
	if err := syscall.Fallocate(fd, 0, off, int64(n)); err != nil {
		return nil, fmt.Errorf("fallocate %s: %w", d.f.Name(), err)
	}
	buf, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANONYMOUS)
	if err != nil {
		return nil, fmt.Errorf("mmap a window for %s: %w", d.f.Name(), err)
	}
	if d.buf == nil {
		_, err = syscall.Pread(fd, buf[:pageSize], off) // short at the end of the file
	} else {
		err = d.write(off)
		copy(buf[:pageSize], d.buf[min(off-d.base, int64(len(d.buf))):])
		err = errors.Join(err, syscall.Munmap(d.buf))
		d.buf = nil
	}
	if err != nil {
		_ = syscall.Munmap(buf) // the error returned is the one that matters
		return nil, fmt.Errorf("grow %s: %w", d.f.Name(), err)
	}
	d.buf, d.base, d.written = buf, off, max(d.written, off)
	return buf, nil
}

func (d *direct) Sync(end int64) error {
	if err := d.write(end); err != nil {
		return err
	}
	d.written = end
	return syscall.Fdatasync(int(d.f.Fd()))
}

func (d *direct) Close(end int64) error {
	var err error
	if d.buf != nil {
		err = errors.Join(d.write(end), syscall.Munmap(d.buf))
		d.buf = nil
	}
	return errors.Join(err, d.f.Truncate(end), d.f.Close())
}

// write writes the window's sectors from the one holding written to end.
func (d *direct) write(end int64) error {
	if d.written >= end {
		return nil
	}
	from, to := d.written&^(d.sector-1), (end+d.sector-1)&^(d.sector-1)
	_, err := d.f.WriteAt(d.buf[from-d.base:to-d.base], from)
	return err
}

// sectorOf returns the smallest power of two from 512 B to a page that a
// direct read of fd's head takes as length and buffer alignment, or EINVAL.
func sectorOf(fd int) (s int64, err error) {
	raw := make([]byte, 3*pageSize) // holds two pages from a page boundary on
	buf := raw[pageSize-int64(uintptr(unsafe.Pointer(&raw[0])))%pageSize:]
	for s = 512; s <= pageSize; s *= 2 {
		if _, err = syscall.Pread(fd, buf[s:2*s], 0); !errors.Is(err, syscall.EINVAL) {
			return s, err
		}
	}
	return 0, err
}

func fcntl(fd, cmd, arg int) (int, error) {
	r, _, errno := syscall.Syscall(syscall.SYS_FCNTL, uintptr(fd), uintptr(cmd), uintptr(arg))
	if errno != 0 {
		return 0, errno
	}
	return int(r), nil
}
