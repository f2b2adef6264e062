package objstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Disk is a filesystem-backed Store: one directory per container, one file
// per object. Keys are chunk fingerprints (hex), so they are always safe
// path components; other keys are sanitized.
type Disk struct {
	root string
}

var _ Store = (*Disk)(nil)

// NewDisk roots a store at dir, creating it if needed.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("objstore: create root: %w", err)
	}
	return &Disk{root: dir}, nil
}

func safeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func (d *Disk) containerPath(container string) string {
	return filepath.Join(d.root, safeName(container))
}

// EnsureContainer creates the container directory if missing.
func (d *Disk) EnsureContainer(ctx context.Context, container string) error {
	if err := ctxErr(ctx, "ensure", container); err != nil {
		return err
	}
	if err := os.MkdirAll(d.containerPath(container), 0o755); err != nil {
		return fmt.Errorf("objstore: ensure container %s: %w", container, err)
	}
	return nil
}

// dir returns the directory of an existing container.
func (d *Disk) dir(ctx context.Context, op, container string) (string, error) {
	if err := ctxErr(ctx, op, container); err != nil {
		return "", err
	}
	dir := d.containerPath(container)
	if _, err := os.Stat(dir); err != nil {
		return "", opErr(op, container, "", ErrNoContainer)
	}
	return dir, nil
}

// PutMulti writes each object atomically (temp file + rename), re-checking
// ctx between files.
func (d *Disk) PutMulti(ctx context.Context, container string, objects []Object) error {
	dir, err := d.dir(ctx, "putmulti", container)
	if err != nil {
		return err
	}
	for _, o := range objects {
		if err := ctxErr(ctx, "putmulti", container); err != nil {
			return err
		}
		if err := writeFile(dir, safeName(o.Key), o.Data); err != nil {
			return opErr("putmulti", container, o.Key, err)
		}
	}
	return nil
}

// writeFile writes name in dir through a temp file renamed into place, so a
// reader never sees a partial object.
func writeFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// GetMulti reads each object, re-checking ctx between files.
func (d *Disk) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	dir, err := d.dir(ctx, "getmulti", container)
	if err != nil {
		return nil, err
	}
	return getEach(ctx, container, keys, func(k string) ([]byte, error) {
		data, err := readFile(filepath.Join(dir, safeName(k)))
		if errors.Is(err, os.ErrNotExist) {
			err = ErrNotFound
		}
		if err != nil {
			return nil, opErr("getmulti", container, k, err)
		}
		return data, nil
	})
}

// readFile reads a file with one read(2) sized by fstat, where os.ReadFile
// reads again to see EOF: objects are immutable and appear by rename.
func readFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, err
	}
	return data, nil
}

// ExistsMulti stats each object, re-checking ctx between files.
func (d *Disk) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	dir, err := d.dir(ctx, "existsmulti", container)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(keys))
	for i, k := range keys {
		if err := ctxErr(ctx, "existsmulti", container); err != nil {
			return nil, err
		}
		_, err := os.Stat(filepath.Join(dir, safeName(k)))
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, opErr("existsmulti", container, k, err)
		}
		out[i] = err == nil
	}
	return out, nil
}
