package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// Fingerprint run files: the on-disk visited-set format, shared by the
// disk tier's spill runs and by checkpoints. A run is a sorted sequence
// of fixed-width (fingerprint, min-depth) records behind a small
// header, so membership probes can binary-search a block and merges can
// stream.
//
//	offset  size  field
//	0       4     magic "ANVF"
//	4       4     format version (little-endian uint32, currently 1)
//	8       8     record count (little-endian uint64)
//	16      12×n  records: fingerprint uint64 LE, depth uint32 LE
//
// Records are strictly increasing by fingerprint; a fingerprint appears
// in at most one run of a visited set.

const (
	fpMagic       = "ANVF"
	segMagic      = "ANSF"
	formatVersion = 1
	fpHeaderSize  = 16
	fpRecSize     = 12
	// fileBufSize sizes the bufio buffer of every run, segment and
	// merge stream. Each file gets a fresh, zeroed buffer, and a
	// frontier segment often holds only a few KB, so a larger buffer
	// costs more than the system calls it saves.
	fileBufSize = 64 << 10
)

// fpRec is one visited record: a fingerprint and its minimum depth.
type fpRec struct {
	fp    uint64
	depth int32
}

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

func putFPRec(buf []byte, r fpRec) {
	binary.LittleEndian.PutUint64(buf[0:8], r.fp)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(r.depth))
}

func getFPRec(buf []byte) fpRec {
	return fpRec{
		fp:    binary.LittleEndian.Uint64(buf[0:8]),
		depth: int32(binary.LittleEndian.Uint32(buf[8:12])),
	}
}

// writeFPRun writes recs (already sorted by fingerprint) as a run file,
// returning the bytes written.
func writeFPRun(path string, recs []fpRec) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	bw := bufio.NewWriterSize(f, fileBufSize)
	if err := writeFileHeader(bw, fpMagic, uint64(len(recs))); err != nil {
		f.Close()
		return 0, err
	}
	var buf [fpRecSize]byte
	for _, r := range recs {
		putFPRec(buf[:], r)
		if _, err := bw.Write(buf[:]); err != nil {
			f.Close()
			return 0, fmt.Errorf("store: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	return fpHeaderSize + int64(len(recs))*fpRecSize, nil
}

// writeFPStream writes records produced by next (sorted, io-style
// iteration) as a run file, returning count and bytes written.
func writeFPStream(path string, next func() (fpRec, bool, error)) (int64, int64, error) {
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
		r, ok, err := next()
		if err != nil {
			f.Close()
			return 0, 0, err
		}
		if !ok {
			break
		}
		putFPRec(buf[:], r)
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

// readFPRun streams a run file's records through fn, in fingerprint
// order.
func readFPRun(path string, fn func(fpRec) error) error {
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
		if err := fn(getFPRec(buf[:])); err != nil {
			return err
		}
	}
	return nil
}
