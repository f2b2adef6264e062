package objstore

import (
	"bytes"
	"errors"
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
	for _, d := range []*Disk{d, openDisk(t, dir)} {
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
	reader := openDisk(t, dir) // a fresh store: nothing in its recent set

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
// read finds, from the recent set or the log, must be exactly its bytes, an
// object ExistsMulti has reported stays readable, and a fresh open finds
// every object put.
func TestDiskConcurrentPutGet(t *testing.T) {
	const containers, keys = 4, 24
	dir := t.TempDir()
	d := openDisk(t, dir)
	name := func(c int) string { return "ws-" + strconv.Itoa(c) }
	data := func(c, k int) []byte {
		if k%4 == 0 { // over the recent set's cap: always read from the log
			return fill(recentMaxObject+k, byte(c*keys+k))
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
	fresh := openDisk(t, dir)
	for c := 0; c < containers; c++ {
		want := make(map[string][]byte)
		for k, key := range all {
			want[key] = data(c, k)
		}
		wantObjects(t, fresh, name(c), want)
	}
}

// TestDiskServesRecentObjects: a small object Disk just wrote is served from
// memory — repeated gets make no read call — as a copy the caller may write
// to. An empty object stays an empty non-nil slice. Overwrites with other
// bytes, concurrent ones included, leave memory agreeing with what a fresh
// open reads from the log. An object over the size cap, or one evicted past
// the byte budget, is read from the log.
func TestDiskServesRecentObjects(t *testing.T) {
	if _, err := os.Stat("/proc/self/io"); err != nil {
		t.Skip("counts system calls in /proc/self/io, which this platform lacks")
	}
	dir := t.TempDir()
	d := openDisk(t, dir)
	_ = d.EnsureContainer(ctx, "c")
	put := func(key string, data []byte) {
		t.Helper()
		if err := d.PutMulti(ctx, "c", []Object{{Key: key, Data: data}}); err != nil {
			t.Fatal(err)
		}
	}
	// Reading the counter costs read calls of its own: measure them once.
	idle := obs.ProcessIO("syscr")
	idle = obs.ProcessIO("syscr") - idle
	// get returns key's bytes and how many read calls the process made.
	get := func(key string) ([]byte, int64) {
		t.Helper()
		before := obs.ProcessIO("syscr")
		got, err := d.GetMulti(ctx, "c", []string{key})
		reads := obs.ProcessIO("syscr") - before - idle
		if err != nil {
			t.Fatal(err)
		}
		return got[0], reads
	}

	hot := fill(4<<10, 1)
	put("hot", hot)
	hot[0]++ // the set kept a copy, not the caller's buffer
	for i := 0; i < 5; i++ {
		got, reads := get("hot")
		if reads != 0 || !bytes.Equal(got, fill(4<<10, 1)) {
			t.Fatalf("get %d of a fresh 4 KB object: %d reads, right bytes %v", i, reads, bytes.Equal(got, fill(4<<10, 1)))
		}
		got[0]++ // must not reach the next get
	}

	put("empty", nil)
	if got, reads := get("empty"); got == nil || len(got) != 0 || reads != 0 {
		t.Fatalf("empty object: %v (nil %v), %d reads", got, got == nil, reads)
	}

	// Concurrent overwrites with different bytes, small and over the cap.
	versions := [][]byte{fill(1<<10, 7), fill(2<<10, 9), fill(recentMaxObject+1, 11)}
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
		fresh, err := NewDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		inLog, err := fresh.GetMulti(ctx, "c", []string{"contended"})
		_ = fresh.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := get("contended"); !bytes.Equal(got, inLog[0]) {
			t.Fatalf("round %d: get returns %d B, a fresh open reads %d B", round, len(got), len(inLog[0]))
		}
	}

	big := fill(recentMaxObject+1, 3)
	put("big", big)
	if got, reads := get("big"); reads == 0 || !bytes.Equal(got, big) {
		t.Fatalf("object over the cap: %d reads, right bytes %v", reads, bytes.Equal(got, big))
	}

	first := fill(4<<10, 5)
	put("first", first)
	for i := 0; i <= recentBudget/recentMaxObject; i++ {
		put("filler-"+strconv.Itoa(i), fill(recentMaxObject, byte(i)))
	}
	if got, reads := get("first"); reads == 0 || !bytes.Equal(got, first) {
		t.Fatalf("evicted object: %d reads, right bytes %v", reads, bytes.Equal(got, first))
	}
}
