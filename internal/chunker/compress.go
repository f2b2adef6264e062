package chunker

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
)

// Compression selects the algorithm applied to chunks before transmission.
// The paper compresses every chunk with Gzip or Bzip2 (§4.1); gzip is the
// one provided, plus None for the transfer-pipeline measurement, which
// isolates transfer from compression CPU.
type Compression int

const (
	// None disables compression.
	None Compression = iota + 1
	// Gzip is the default algorithm.
	Gzip
)

// A gzip.Writer allocates its ~800 KB compressor on first use and a
// gzip.Reader its decompressor; Reset keeps both, and a reset writer's
// output is byte-identical to a fresh one's. A zero gzip.Reader is ready
// for Reset.
var (
	gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}
	gzipReaders = sync.Pool{New: func() any { return new(gzip.Reader) }}
)

// Compress encodes data with the selected algorithm.
func Compress(data []byte, c Compression) ([]byte, error) {
	switch c {
	case None:
		return data, nil
	case Gzip:
		var buf bytes.Buffer
		w := gzipWriters.Get().(*gzip.Writer)
		defer gzipWriters.Put(w)
		w.Reset(&buf)
		if _, err := w.Write(data); err != nil {
			return nil, fmt.Errorf("chunker: gzip write: %w", err)
		}
		if err := w.Close(); err != nil {
			return nil, fmt.Errorf("chunker: gzip close: %w", err)
		}
		return buf.Bytes(), nil
	default:
		return nil, fmt.Errorf("chunker: unknown compression %d", c)
	}
}

// Decompress reverses Compress.
func Decompress(data []byte, c Compression) ([]byte, error) {
	switch c {
	case None:
		return data, nil
	case Gzip:
		r := gzipReaders.Get().(*gzip.Reader)
		defer gzipReaders.Put(r)
		if err := r.Reset(bytes.NewReader(data)); err != nil {
			return nil, fmt.Errorf("chunker: gzip reader: %w", err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("chunker: gunzip: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("chunker: unknown compression %d", c)
	}
}
