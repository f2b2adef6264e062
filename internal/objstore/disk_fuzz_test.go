package objstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"stacksync/internal/reclog"
)

// FuzzDiskRecover appends arbitrary bytes to a log of whole records, as a
// crash mid-append or a damaged disk leaves one, and reopens it. NewDisk
// must neither panic nor fail, every object put before the tail must read
// back its own bytes, and an object put after the reopen must read back
// after a second one: the tail is cut off, not built on.
func FuzzDiskRecover(f *testing.F) {
	rec := reclog.Frame(nil, reclog.AppendString(reclog.AppendString([]byte{recPut}, "c"), "t"), []byte("tail"))
	box := reclog.Frame(nil, reclog.AppendString([]byte{recContainer}, "x"))
	damaged := bytes.Clone(rec)
	damaged[len(damaged)-6] ^= 1
	f.Add([]byte{})
	f.Add(rec)                                             // a whole record
	f.Add(rec[:len(rec)-3])                                // cut inside its CRC
	f.Add(damaged)                                         // a flipped byte in the body
	f.Add(append(box, 0xff, 0xff, 0xff))                   // a whole record, then an unterminated length
	f.Add([]byte{0x7f, recPut, 1, 'c'})                    // a length past the end
	f.Add(append(bytes.Clone(rec), rec...))                // two whole records
	f.Add(append(bytes.Clone(rec), make([]byte, 4096)...)) // a whole record, then a zero tail, as a mapped writer preallocates
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		d := openDisk(t, dir)
		_ = d.EnsureContainer(ctx, "c")
		objs := []Object{{Key: "empty", Data: []byte{}}, {Key: "small", Data: []byte("one")}, {Key: "big", Data: fill(64<<10+1, 2)}}
		want := make(map[string][]byte)
		for _, o := range objs {
			want[o.Key] = o.Data
		}
		if err := d.PutMulti(ctx, "c", objs); err != nil {
			t.Fatal(err)
		}
		_ = d.Close()
		log, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := log.Write(tail); err != nil {
			t.Fatal(err)
		}
		_ = log.Close()

		d = openDisk(t, dir)
		wantObjects(t, d, "c", want)
		want["after"] = fill(900, 7)
		if err := d.PutMulti(ctx, "c", []Object{{Key: "after", Data: want["after"]}}); err != nil {
			t.Fatal(err)
		}
		_ = d.Close()
		wantObjects(t, openDisk(t, dir), "c", want)
	})
}
