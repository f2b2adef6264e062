package chunker

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
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

// Compress encodes data with the selected algorithm.
func Compress(data []byte, c Compression) ([]byte, error) {
	switch c {
	case None:
		return data, nil
	case Gzip:
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
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
		r, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("chunker: gzip reader: %w", err)
		}
		defer r.Close()
		out, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("chunker: gunzip: %w", err)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("chunker: unknown compression %d", c)
	}
}
