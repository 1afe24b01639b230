package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Fingerprint run files: the on-disk visited-set format, shared by the
// visited set's spill runs and by checkpoints. A run is a sorted sequence
// of fixed-width fingerprints behind a small header, so membership
// probes can binary-search a block and merges can stream.
//
//	offset  size  field
//	0       4     magic "ANVF"
//	4       4     format version (little-endian uint32, currently 2)
//	8       8     record count (little-endian uint64)
//	16      8×n   records: fingerprint uint64 LE
//
// Records are strictly increasing; a fingerprint appears in at most one
// run of a visited set. Version 1 records also carried a 4-byte depth,
// so a version-1 file is refused rather than misread.

const (
	fpMagic       = "ANVF"
	segMagic      = "ANSF"
	formatVersion = 2
	fpHeaderSize  = 16
	fpRecSize     = 8
	// fileBufSize sizes the bufio buffer of every run, segment and
	// merge stream. Each file gets a fresh, zeroed buffer, and a
	// frontier segment often holds only a few KB, so a larger buffer
	// costs more than the system calls it saves.
	fileBufSize = 64 << 10
)

func writeFileHeader(w io.Writer, magic string, count uint64) error {
	var hdr [fpHeaderSize]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], count)
	_, err := w.Write(hdr[:])
	return err
}

func readFileHeader(r io.Reader, magic string) (count uint64, err error) {
	var hdr [fpHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, fmt.Errorf("store: reading %s header: %w", magic, err)
	}
	if string(hdr[:4]) != magic {
		return 0, fmt.Errorf("store: bad magic %q (want %q)", hdr[:4], magic)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != formatVersion {
		return 0, fmt.Errorf("store: unsupported %s format version %d (this build reads version %d)", magic, v, formatVersion)
	}
	return binary.LittleEndian.Uint64(hdr[8:16]), nil
}

// writeFPRun writes fps (already sorted) as a run file, returning the
// bytes written.
func writeFPRun(path string, fps []uint64) (int64, error) {
	i := 0
	_, bytes, err := writeFPStream(path, func() (uint64, bool, error) {
		if i == len(fps) {
			return 0, false, nil
		}
		i++
		return fps[i-1], true, nil
	})
	return bytes, err
}

// writeFPStream writes the fingerprints produced by next (sorted,
// io-style iteration) as a run file, returning count and bytes written.
func writeFPStream(path string, next func() (uint64, bool, error)) (int64, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	bw := bufio.NewWriterSize(f, fileBufSize)
	// Header last would need a seek; reserve it now and patch the count.
	if err := writeFileHeader(bw, fpMagic, 0); err != nil {
		f.Close()
		return 0, 0, err
	}
	var count int64
	var buf [fpRecSize]byte
	for {
		fp, ok, err := next()
		if err != nil {
			f.Close()
			return 0, 0, err
		}
		if !ok {
			break
		}
		binary.LittleEndian.PutUint64(buf[:], fp)
		if _, err := bw.Write(buf[:]); err != nil {
			f.Close()
			return 0, 0, fmt.Errorf("store: %w", err)
		}
		count++
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(count))
	if _, err := f.WriteAt(cnt[:], 8); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	return count, fpHeaderSize + count*fpRecSize, nil
}

// readFPRun streams a run file's fingerprints through fn, in order.
func readFPRun(path string, fn func(fp uint64) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, fileBufSize)
	count, err := readFileHeader(br, fpMagic)
	if err != nil {
		return err
	}
	var buf [fpRecSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("store: reading run record %d/%d: %w", i, count, err)
		}
		if err := fn(binary.LittleEndian.Uint64(buf[:])); err != nil {
			return err
		}
	}
	return nil
}
