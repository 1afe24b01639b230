package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Frontier segment files: spilled work-queue batches, and a
// checkpoint's pending work (frontier.seg). States cannot be
// serialized (machines are live objects behind interfaces), so a
// segment stores each entry's discovery *path* — the step sequence from
// the initial state — delta-encoded against the previous entry's path:
// consecutive frontier entries are usually siblings or cousins, so the
// shared prefix is nearly the whole path and the suffix a step or two.
//
//	header: magic "ANSF", version uint32 LE, entry count uint64 LE
//	entry:  uvarint shared-prefix length
//	        uvarint suffix length, then that many uvarint packed Steps
//	        uvarint Aux, uvarint Depth, zigzag-varint Tag
//
// Decoding rebuilds the PathNode chains with the same structural
// sharing the encoder exploited.

// writeSegFile writes entries (each carrying a Path) as a segment,
// returning bytes written.
func writeSegFile(path string, entries []Entry) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	cw := &countingWriter{w: bufio.NewWriterSize(f, fileBufSize)}
	if err := writeFileHeader(cw, segMagic, uint64(len(entries))); err != nil {
		f.Close()
		return 0, err
	}
	var prev []Step
	var buf [binary.MaxVarintLen64]byte
	var werr error
	putUvarint := func(v uint64) {
		if werr != nil {
			return
		}
		n := binary.PutUvarint(buf[:], v)
		_, werr = cw.Write(buf[:n])
	}
	for i, e := range entries {
		if e.Path == nil && e.Depth != 0 {
			f.Close()
			return 0, fmt.Errorf("store: spilling entry %d without a path", i)
		}
		steps := e.Path.Steps()
		prefix := 0
		for prefix < len(prev) && prefix < len(steps) && prev[prefix] == steps[prefix] {
			prefix++
		}
		putUvarint(uint64(prefix))
		putUvarint(uint64(len(steps) - prefix))
		for _, s := range steps[prefix:] {
			putUvarint(uint64(s))
		}
		putUvarint(e.Aux)
		putUvarint(uint64(uint32(e.Depth)))
		putUvarint(zigzag(e.Tag))
		if werr != nil {
			f.Close()
			return 0, fmt.Errorf("store: %w", werr)
		}
		prev = steps
	}
	if err := cw.w.(*bufio.Writer).Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return cw.n, nil
}

// readSegFile decodes a segment. Entries come back with Sys nil and
// Path set; chains share ancestor nodes exactly as the originals did.
func readSegFile(path string) ([]Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, fileBufSize)
	count, err := readFileHeader(br, segMagic)
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, count)
	// chain[i] is the PathNode after step i of the previous entry's
	// path; reusing chain[:prefix] restores the structural sharing.
	var chain []*PathNode
	for i := uint64(0); i < count; i++ {
		prefix, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: segment entry %d: %w", i, err)
		}
		suffix, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: segment entry %d: %w", i, err)
		}
		if int(prefix) > len(chain) {
			return nil, fmt.Errorf("store: segment entry %d: prefix %d exceeds previous path length %d", i, prefix, len(chain))
		}
		chain = chain[:prefix]
		for j := uint64(0); j < suffix; j++ {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("store: segment entry %d: %w", i, err)
			}
			var parent *PathNode
			if len(chain) > 0 {
				parent = chain[len(chain)-1]
			}
			chain = append(chain, parent.Extend(Step(v)))
		}
		aux, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: segment entry %d: %w", i, err)
		}
		depth, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: segment entry %d: %w", i, err)
		}
		tagz, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: segment entry %d: %w", i, err)
		}
		var p *PathNode
		if len(chain) > 0 {
			p = chain[len(chain)-1]
		}
		entries = append(entries, Entry{
			Aux:   aux,
			Depth: int32(uint32(depth)),
			Tag:   unzigzag(tagz),
			Path:  p,
		})
	}
	return entries, nil
}

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// countingWriter counts bytes through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
