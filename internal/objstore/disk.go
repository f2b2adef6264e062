package objstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
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

func (d *Disk) objectPath(container, key string) string {
	return filepath.Join(d.containerPath(container), safeName(key))
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

// Put writes the object atomically (temp file + rename).
func (d *Disk) Put(ctx context.Context, container, key string, data []byte) error {
	if err := ctxErr(ctx, "put", container); err != nil {
		return err
	}
	dir := d.containerPath(container)
	if _, err := os.Stat(dir); err != nil {
		return opErr("put", container, key, ErrNoContainer)
	}
	tmp, err := os.CreateTemp(dir, ".put-*")
	if err != nil {
		return opErr("put", container, key, err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmpName)
		return opErr("put", container, key, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmpName)
		return opErr("put", container, key, err)
	}
	if err := os.Rename(tmpName, d.objectPath(container, key)); err != nil {
		_ = os.Remove(tmpName)
		return opErr("put", container, key, err)
	}
	return nil
}

// Get reads the object with one read(2) sized by fstat, where os.ReadFile
// reads again to see EOF: objects are immutable and appear by rename.
func (d *Disk) Get(ctx context.Context, container, key string) ([]byte, error) {
	if err := ctxErr(ctx, "get", container); err != nil {
		return nil, err
	}
	if _, err := os.Stat(d.containerPath(container)); err != nil {
		return nil, opErr("get", container, key, ErrNoContainer)
	}
	f, err := os.Open(d.objectPath(container, key))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, opErr("get", container, key, ErrNotFound)
		}
		return nil, opErr("get", container, key, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, opErr("get", container, key, err)
	}
	data := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, opErr("get", container, key, err)
	}
	return data, nil
}

// Exists reports object presence.
func (d *Disk) Exists(ctx context.Context, container, key string) (bool, error) {
	if err := ctxErr(ctx, "exists", container); err != nil {
		return false, err
	}
	if _, err := os.Stat(d.containerPath(container)); err != nil {
		return false, opErr("exists", container, key, ErrNoContainer)
	}
	if _, err := os.Stat(d.objectPath(container, key)); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, opErr("exists", container, key, err)
	}
	return true, nil
}

// Delete removes the object file; missing objects are ignored.
func (d *Disk) Delete(ctx context.Context, container, key string) error {
	if err := ctxErr(ctx, "delete", container); err != nil {
		return err
	}
	if _, err := os.Stat(d.containerPath(container)); err != nil {
		return opErr("delete", container, key, ErrNoContainer)
	}
	if err := os.Remove(d.objectPath(container, key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return opErr("delete", container, key, err)
	}
	return nil
}

// List returns the sorted object keys of a container.
func (d *Disk) List(ctx context.Context, container string) ([]string, error) {
	if err := ctxErr(ctx, "list", container); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(d.containerPath(container))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, opErr("list", container, "", ErrNoContainer)
		}
		return nil, opErr("list", container, "", err)
	}
	keys := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".put-") {
			continue
		}
		keys = append(keys, e.Name())
	}
	sort.Strings(keys)
	return keys, nil
}

// PutMulti writes each object atomically, re-checking ctx between files.
func (d *Disk) PutMulti(ctx context.Context, container string, objects []Object) error {
	return putMultiSeq(ctx, d, container, objects)
}

// GetMulti reads each object, re-checking ctx between files.
func (d *Disk) GetMulti(ctx context.Context, container string, keys []string) ([][]byte, error) {
	return getMultiSeq(ctx, d, container, keys)
}

// ExistsMulti stats each object, re-checking ctx between files.
func (d *Disk) ExistsMulti(ctx context.Context, container string, keys []string) ([]bool, error) {
	return existsMultiSeq(ctx, d, container, keys)
}
