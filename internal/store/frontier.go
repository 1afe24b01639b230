package store

import (
	"os"
	"sync"
)

// Frontier is one shard of the breadth-first work queue: a head batch
// and a tail batch in RAM with a FIFO chain of spilled segments between
// them. Pushes land on the tail; when the in-RAM entry count crosses
// the shard's share of the budget, the oldest half of the tail is
// written out as one segment (dropping the live states — their paths
// suffice). With no budget the share is unbounded, so the shard never
// spills. Pops drain the head, then reload the oldest segment, then fall
// through to the tail, so the global service order is exactly the
// in-RAM order — the engine explores the same sequence whether or not
// anything spilled. All methods are safe for concurrent use: the
// breadth-first workers pop from each other's shards.
type Frontier struct {
	mu     sync.Mutex
	st     *Store
	maxRAM int // in-RAM entries before a spill

	head    []Entry
	headIdx int
	segs    []segRef
	tail    []Entry
	tailIdx int
}

// segRef is one spilled segment file.
type segRef struct {
	path  string
	count int
	bytes int64
}

// entryRAMEstimate is the assumed RAM cost of one in-RAM frontier
// entry (system clone + path nodes + slack), used to turn the byte
// budget into an entry budget.
const entryRAMEstimate = 512

// minFrontierRAM floors the in-RAM entry budget: spilling pays only in
// batches.
const minFrontierRAM = 128

// Push appends e. Under a budget it may spill a batch of entries to a
// segment file, dropping their Sys, so every entry must carry its Path.
func (d *Frontier) Push(e Entry) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.tail = append(d.tail, e)
	if d.inRAM() > d.maxRAM {
		return d.spillLocked()
	}
	return nil
}

func (d *Frontier) inRAM() int {
	return (len(d.head) - d.headIdx) + (len(d.tail) - d.tailIdx)
}

// spillLocked writes the oldest half of the tail as one segment.
func (d *Frontier) spillLocked() error {
	live := d.tail[d.tailIdx:]
	take := len(live) / 2
	if take == 0 {
		return nil
	}
	sp := d.st.cfg.Trace.StartArgs("store.spill", "frontier spill",
		map[string]any{"entries": take})
	defer sp.End()
	batch := live[:take]
	path := d.st.segPath()
	bytes, err := writeSegFile(path, batch)
	if err != nil {
		return err
	}
	d.segs = append(d.segs, segRef{path: path, count: take, bytes: bytes})
	rest := live[take:]
	n := copy(d.tail, rest)
	for i := n; i < len(d.tail); i++ {
		d.tail[i] = Entry{}
	}
	d.tail = d.tail[:n]
	d.tailIdx = 0
	d.st.stats.frontierSpills.Add(1)
	d.st.stats.diskWritten.Add(bytes)
	d.st.stats.diskBytes.Add(bytes)
	return nil
}

// loadLocked reads the oldest segment into the head and deletes its
// file.
func (d *Frontier) loadLocked() error {
	sp := d.st.cfg.Trace.Start("store.spill", "frontier load")
	defer sp.End()
	ref := d.segs[0]
	d.segs = d.segs[1:]
	entries, err := readSegFile(ref.path)
	if err != nil {
		return err
	}
	os.Remove(ref.path)
	d.head = entries
	d.headIdx = 0
	d.st.stats.frontierLoads.Add(1)
	d.st.stats.diskBytes.Add(-ref.bytes)
	return nil
}

// Pop removes the oldest entry. An entry without Sys — spilled, or
// restored from a checkpoint — is replayed from the root before it is
// returned. ok is false when the frontier is empty.
func (d *Frontier) Pop() (Entry, bool, error) {
	d.mu.Lock()
	var e Entry
	if d.headIdx >= len(d.head) && len(d.segs) > 0 {
		if err := d.loadLocked(); err != nil {
			d.mu.Unlock()
			return Entry{}, false, err
		}
	}
	switch {
	case d.headIdx < len(d.head):
		e = d.head[d.headIdx]
		d.head[d.headIdx] = Entry{}
		d.headIdx++
		if d.headIdx >= len(d.head) {
			d.head, d.headIdx = nil, 0
		}
	case d.tailIdx < len(d.tail):
		e = d.tail[d.tailIdx]
		d.tail[d.tailIdx] = Entry{}
		d.tailIdx++
		if d.tailIdx >= len(d.tail) {
			d.tail, d.tailIdx = d.tail[:0], 0
		}
	default:
		d.mu.Unlock()
		return Entry{}, false, nil
	}
	d.mu.Unlock()
	if err := d.st.Replay(&e); err != nil {
		return Entry{}, false, err
	}
	return e, true, nil
}

// Len returns the number of queued entries, spilled included.
func (d *Frontier) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.inRAM()
	for _, s := range d.segs {
		n += s.count
	}
	return n
}

// Snapshot calls fn for every queued entry, oldest first, without
// consuming them; spilled entries are passed with Sys nil. Used by
// checkpointing.
func (d *Frontier) Snapshot(fn func(Entry) error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := d.headIdx; i < len(d.head); i++ {
		if err := fn(d.head[i]); err != nil {
			return err
		}
	}
	for _, ref := range d.segs {
		entries, err := readSegFile(ref.path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			if err := fn(e); err != nil {
				return err
			}
		}
	}
	for i := d.tailIdx; i < len(d.tail); i++ {
		if err := fn(d.tail[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close deletes the shard's segment files.
func (d *Frontier) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range d.segs {
		os.Remove(s.path)
		d.st.stats.diskBytes.Add(-s.bytes)
	}
	d.segs = nil
	d.head, d.tail = nil, nil
	return nil
}
