//go:build !linux

package reclog

import "os"

// DirectTail is MapTail here: appending needs Linux either way, and
// MapTail's grow fails with an error that names the platform.
func DirectTail(f *os.File) (File, error) { return MapTail(f), nil }
