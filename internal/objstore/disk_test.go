package objstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stacksync/internal/obs"
	"stacksync/internal/reclog"
)

// openDisk opens the store at dir and closes it when the test ends.
func openDisk(t testing.TB, dir string) *Disk {
	t.Helper()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// fill returns n bytes counting up from seed.
func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// wantObjects checks that each key of want reads back its bytes from
// container, or is absent where want holds nil.
func wantObjects(t *testing.T, d *Disk, container string, want map[string][]byte) {
	t.Helper()
	for k, w := range want {
		got, err := d.GetMulti(ctx, container, []string{k})
		switch {
		case w == nil && !errors.Is(err, ErrNotFound):
			t.Fatalf("%s/%s: want absent, got %d B, %v", container, k, len(got[0]), err)
		case w != nil && (err != nil || !bytes.Equal(got[0], w)):
			t.Fatalf("%s/%s: want %d B, got %d B (right bytes %v), %v", container, k, len(w), len(got[0]), bytes.Equal(got[0], w), err)
		}
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1 := openDisk(t, dir)
	_ = d1.EnsureContainer(ctx, "c")
	if err := d1.PutMulti(ctx, "c", []Object{{Key: "deadbeef", Data: []byte("persisted")}}); err != nil {
		t.Fatal(err)
	}
	_ = d1.Close()
	d2 := openDisk(t, dir)
	got, err := d2.GetMulti(ctx, "c", []string{"deadbeef"})
	if err != nil || string(got[0]) != "persisted" {
		t.Fatalf("after reopen: %q, %v", got, err)
	}
}

// TestDiskSanitizesHostileKeys: keys and container names that would escape
// a directory round-trip their own bytes, and the store writes nothing but
// its log: the root holds the log alone and nothing appears beside it.
func TestDiskSanitizesHostileKeys(t *testing.T) {
	parent := t.TempDir()
	d := openDisk(t, filepath.Join(parent, "store"))
	hostile := []string{"../../etc/passwd", "/abs", "a/../../b", "..", ".", "", "nul\x00byte"}
	for _, c := range []string{"c", "../escape"} {
		if err := d.EnsureContainer(ctx, c); err != nil {
			t.Fatal(err)
		}
		var objs []Object
		for _, k := range hostile {
			objs = append(objs, Object{Key: k, Data: []byte(c + "|" + k)})
		}
		if err := d.PutMulti(ctx, c, objs); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []string{"c", "../escape"} {
		want := make(map[string][]byte)
		for _, k := range hostile {
			want[k] = []byte(c + "|" + k)
		}
		wantObjects(t, d, c, want)
	}
	if entries, _ := os.ReadDir(filepath.Join(parent, "store")); len(entries) != 1 || entries[0].Name() != logName {
		t.Fatalf("store root holds %v, want only %s", entries, logName)
	}
	if entries, _ := os.ReadDir(parent); len(entries) != 1 {
		t.Fatalf("beside the store root: %v", entries)
	}
}

// TestDiskKeepsDistinctNamesApart: names that differ only in characters a
// file name could not carry stay distinct objects and distinct containers,
// across a reopen too, and ExistsMulti sees only its own container.
func TestDiskKeepsDistinctNamesApart(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	want := map[string]map[string][]byte{
		"c":      {"a/b": []byte("slash"), "a_b": []byte("underscore"), "a b": []byte("space")},
		"team/a": {"k": []byte("team slash a"), "only-here": []byte("x")},
		"team_a": {"k": []byte("team underscore a")},
	}
	for c, objs := range want {
		if err := d.EnsureContainer(ctx, c); err != nil {
			t.Fatal(err)
		}
		for k, data := range objs {
			if err := d.PutMulti(ctx, c, []Object{{Key: k, Data: data}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for reopen := 0; reopen < 2; reopen++ {
		if reopen > 0 {
			_ = d.Close()
			d = openDisk(t, dir)
		}
		for c, objs := range want {
			wantObjects(t, d, c, objs)
		}
		if got, err := d.ExistsMulti(ctx, "team_a", []string{"k", "only-here"}); err != nil || !got[0] || got[1] {
			t.Fatalf("team_a exists [k only-here] = %v, %v; want [true false]", got, err)
		}
	}
}

// TestDiskRecoversTornTail: a log cut inside its last record, as a crash in
// the middle of an append leaves it, reopens with every whole record; what
// is put after the reopen follows them and survives a second reopen. The
// torn object's bytes hold a whole record of their own, just where the
// second replay looks once the next put is appended: the torn tail must be
// cut off at open, or that record comes back.
func TestDiskRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	_ = d.EnsureContainer(ctx, "c")
	want := map[string][]byte{"a": fill(100, 1), "b": fill(5000, 2), "after": fill(700, 4)}
	if err := d.PutMulti(ctx, "c", []Object{{Key: "a", Data: want["a"]}, {Key: "b", Data: want["b"]}}); err != nil {
		t.Fatal(err)
	}
	putHead := func(key string) []byte { return reclog.AppendString(reclog.AppendString([]byte{recPut}, "c"), key) }
	afterRec := reclog.Frame(nil, putHead("after"), want["after"])
	ghost := reclog.Frame(nil, putHead("ghost"), []byte("resurrected"))
	torn := make([]byte, 3000)
	copy(torn[len(afterRec)-len(putHead("torn"))-2:], ghost) // 2: the torn record's length prefix
	if err := d.PutMulti(ctx, "c", []Object{{Key: "torn", Data: torn}}); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	log := filepath.Join(dir, logName)
	info, err := os.Stat(log)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(log, info.Size()-1000); err != nil {
		t.Fatal(err)
	}

	d = openDisk(t, dir)
	wantObjects(t, d, "c", map[string][]byte{"a": want["a"], "b": want["b"], "torn": nil, "ghost": nil})
	if err := d.PutMulti(ctx, "c", []Object{{Key: "after", Data: want["after"]}}); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	want["torn"], want["ghost"] = nil, nil
	wantObjects(t, openDisk(t, dir), "c", want)
}

// TestDiskRefusesDamagedRecord: a flipped byte in an object's body makes
// GetMulti fail with an error, never serve bytes. A store open when the byte
// flips refuses the record at read; one opened after it ends the replay at
// the damaged record, as at a torn tail, and what is put after that
// survives the next reopen.
func TestDiskRefusesDamagedRecord(t *testing.T) {
	dir := t.TempDir()
	d := openDisk(t, dir)
	_ = d.EnsureContainer(ctx, "c")
	data := fill(1000, 5)
	if err := d.PutMulti(ctx, "c", []Object{{Key: "k", Data: data}}); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	reader := openDisk(t, dir) // a fresh store: nothing in its mapped window

	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	info, _ := f.Stat()
	body := info.Size() - 4 - 500 // inside the data, ahead of the CRC
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, body); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, body); err != nil {
		t.Fatal(err)
	}
	_ = f.Close()

	got, err := reader.GetMulti(ctx, "c", []string{"k"})
	if err == nil || errors.Is(err, ErrNotFound) || got[0] != nil {
		t.Fatalf("damaged record: got %d B, %v; want a checksum error and no bytes", len(got[0]), err)
	}
	_ = reader.Close()

	d = openDisk(t, dir)
	wantObjects(t, d, "c", map[string][]byte{"k": nil})
	if err := d.PutMulti(ctx, "c", []Object{{Key: "k", Data: data}}); err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	wantObjects(t, openDisk(t, dir), "c", map[string][]byte{"k": data})
}

// TestDiskRefusesOldLayout: a root holding a directory per container, as
// earlier versions wrote it, is refused with an error that names the layout,
// and nothing is written into it.
func TestDiskRefusesOldLayout(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "c"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "c", "deadbeef"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if d, err := NewDisk(root); err == nil || !strings.Contains(err.Error(), "one-file-per-object") {
		t.Fatalf("NewDisk on the old layout: %v, %v", d, err)
	}
	if entries, _ := os.ReadDir(root); len(entries) != 1 {
		t.Fatalf("root after the refusal: %v", entries)
	}
}

// TestDiskConcurrentPutGet: a writer and a reader per container, over
// several containers at once. Objects are content-addressed, so whatever a
// read finds must be exactly its bytes, an object ExistsMulti has reported
// stays readable, and an open after Close finds every object put.
func TestDiskConcurrentPutGet(t *testing.T) {
	const containers, keys = 4, 24
	dir := t.TempDir()
	d := openDisk(t, dir)
	name := func(c int) string { return "ws-" + strconv.Itoa(c) }
	data := func(c, k int) []byte {
		if k%4 == 0 {
			return fill(64<<10+k, byte(c*keys+k))
		}
		return fill(1<<10+k, byte(c*keys+k))
	}
	all := make([]string, keys)
	for k := range all {
		all[k] = "k" + strconv.Itoa(k)
	}
	for c := 0; c < containers; c++ {
		if err := d.EnsureContainer(ctx, name(c)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < containers; c++ {
		wg.Add(2)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < keys; k += 3 {
				batch := []Object{{all[k], data(c, k)}, {all[k+1], data(c, k+1)}, {all[k+2], data(c, k+2)}}
				if err := d.PutMulti(ctx, name(c), batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				exists, err := d.ExistsMulti(ctx, name(c), all)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := d.GetMulti(ctx, name(c), all)
				if err != nil && !errors.Is(err, ErrNotFound) {
					t.Error(err)
					return
				}
				for k, b := range got {
					if (exists[k] && b == nil) || (b != nil && !bytes.Equal(b, data(c, k))) {
						t.Errorf("%s/%s: exists %v, got %d B, right bytes %v", name(c), all[k], exists[k], len(b), bytes.Equal(b, data(c, k)))
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	_ = d.Close()
	fresh := openDisk(t, dir)
	for c := 0; c < containers; c++ {
		want := make(map[string][]byte)
		for k, key := range all {
			want[key] = data(c, k)
		}
		wantObjects(t, fresh, name(c), want)
	}
}

// countCalls returns a function that reports how many system calls of
// field ("syscr" or "syscw" of /proc/self/io) the process makes in f, less
// those the counting itself makes. It skips the test where the file is
// missing. The count is the whole process's, so a goroutine an earlier test
// left behind can add a call: callers take the fewest of a few tries.
func countCalls(t *testing.T, field string) func(f func()) int64 {
	t.Helper()
	if _, err := os.Stat("/proc/self/io"); err != nil {
		t.Skip("counts system calls in /proc/self/io, which this platform lacks")
	}
	idle := obs.ProcessIO(field)
	idle = obs.ProcessIO(field) - idle
	return func(f func()) int64 {
		before := obs.ProcessIO(field)
		f()
		return obs.ProcessIO(field) - before - idle
	}
}

// TestDiskServesFreshObjectsFromWindow: an object Disk just wrote, small or
// large, is copied from the log's mapped window — repeated gets make no
// read call — and once more than a window of later puts has moved the
// window past it, a get reads it with one read call. Neither a put's nor a
// get's buffer is shared with the store, and an empty object stays an
// empty non-nil slice. Concurrent overwrites with other bytes leave the
// store agreeing with what it reads after Close and a reopen.
func TestDiskServesFreshObjectsFromWindow(t *testing.T) {
	reads := countCalls(t, "syscr")
	dir := t.TempDir()
	d := openDisk(t, dir)
	_ = d.EnsureContainer(ctx, "c")
	put := func(key string, data []byte) {
		t.Helper()
		if err := d.PutMulti(ctx, "c", []Object{{Key: key, Data: data}}); err != nil {
			t.Fatal(err)
		}
	}
	// get returns key's bytes and how many read calls the process made.
	get := func(key string) (got []byte, n int64) {
		t.Helper()
		var err error
		n = reads(func() {
			var objs [][]byte
			objs, err = d.GetMulti(ctx, "c", []string{key})
			got = objs[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, n
	}

	// fewest returns the fewest read calls of five gets of key, each of which
	// must return want.
	fewest := func(key string, want []byte) int64 {
		t.Helper()
		least := int64(-1)
		for i := 0; i < 5; i++ {
			got, n := get(key)
			if !bytes.Equal(got, want) {
				t.Fatalf("get %d of %s: %d B, want %d B", i, key, len(got), len(want))
			}
			got[0]++ // must not reach the next get
			if least < 0 || n < least {
				least = n
			}
		}
		return least
	}

	for _, size := range []int{4 << 10, 512 << 10} {
		key := "fresh-" + strconv.Itoa(size)
		data := fill(size, byte(size>>10))
		put(key, data)
		data[0]++ // the store holds its own bytes, not the caller's buffer
		if n := fewest(key, fill(size, byte(size>>10))); n != 0 {
			t.Fatalf("gets of a fresh %d KB object: at least %d reads each, want 0", size>>10, n)
		}
	}

	put("empty", nil)
	if got, n := get("empty"); got == nil || len(got) != 0 || n != 0 {
		t.Fatalf("empty object: %v (nil %v), %d reads", got, got == nil, n)
	}

	for i := 0; i < 10; i++ { // 5 MB: past a 4 MB window
		put("filler-"+strconv.Itoa(i), fill(512<<10, byte(i)))
	}
	if n := fewest("fresh-4096", fill(4<<10, 4)); n != 1 {
		t.Fatalf("gets of an object a window behind: at least %d reads each, want 1", n)
	}

	// Concurrent overwrites with different bytes, small and large.
	versions := [][]byte{fill(1<<10, 7), fill(2<<10, 9), fill(512<<10, 11)}
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for _, v := range versions {
			wg.Add(1)
			go func(v []byte) {
				defer wg.Done()
				_ = d.PutMulti(ctx, "c", []Object{{Key: "contended", Data: v}})
			}(v)
		}
		wg.Wait()
		live, _ := get("contended")
		_ = d.Close()
		d = openDisk(t, dir)
		if inLog, _ := get("contended"); !bytes.Equal(live, inLog) {
			t.Fatalf("round %d: the live store read %d B, a reopen reads %d B", round, len(live), len(inLog))
		}
	}
}

// TestDiskPutMakesNoWriteCall: a put, small or large, stores its record
// through the log's mapped tail and makes no write-family system call.
func TestDiskPutMakesNoWriteCall(t *testing.T) {
	writes := countCalls(t, "syscw")
	d := openDisk(t, t.TempDir())
	if err := d.EnsureContainer(ctx, "c"); err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1 << 10, 512 << 10} {
		least := int64(-1)
		for i := 0; i < 3; i++ {
			var err error
			obj := []Object{{Key: fmt.Sprint(size, i), Data: fill(size, byte(i))}}
			n := writes(func() { err = d.PutMulti(ctx, "c", obj) })
			if err != nil {
				t.Fatal(err)
			}
			if least < 0 || n < least {
				least = n
			}
		}
		if least != 0 {
			t.Fatalf("puts of %d KB: at least %d write calls each, want 0", size>>10, least)
		}
	}
}
