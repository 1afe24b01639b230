package store

import (
	"slices"
	"sync"
	"sync/atomic"
)

// This file is the Mem tier's visited set: memTable, a sharded
// open-addressing fingerprint table, serves every engine at every
// worker count. The Mem tier's frontier is the one Frontier type with
// no RAM ceiling.

// zeroFPSubstitute replaces a fingerprint of exactly 0 in the
// open-addressing tables, where 0 marks an empty slot. Mapping 0 to a
// fixed odd constant merges it with that constant's states —
// indistinguishable from an ordinary 2⁻⁶⁴ collision.
const zeroFPSubstitute = 0x9e3779b97f4a7c15

// fpSlots is one immutable-size open-addressing array of fingerprints.
// Slots hold 0 (empty) or a fingerprint; entries are never deleted.
type fpSlots struct {
	arr  []atomic.Uint64
	mask uint64
}

// fpShard is one lock shard of the fingerprint table. Readers load the
// current slots atomically and probe lock-free; writers insert (and
// grow) under the mutex and publish new arrays with an atomic pointer
// store. A published array is at most half full, so lock-free probes
// always find an empty slot or the fingerprint.
type fpShard struct {
	mu    sync.Mutex
	slots atomic.Pointer[fpSlots]
	used  int      // guarded by mu
	_     [40]byte // pad to a cache line to avoid false sharing between shards
}

// memTable is the sharded concurrent visited set. The shard is chosen
// by the low fingerprint bits, the probe position by higher bits, so
// the two are uncorrelated.
type memTable struct {
	shards    []fpShard
	shardMask uint64
}

func newMemTable(workers int) *memTable {
	nShards := 64
	for nShards < workers*8 {
		nShards <<= 1
	}
	t := &memTable{shards: make([]fpShard, nShards), shardMask: uint64(nShards - 1)}
	for i := range t.shards {
		t.shards[i].slots.Store(newFPSlots(256))
	}
	return t
}

func newFPSlots(n int) *fpSlots {
	return &fpSlots{arr: make([]atomic.Uint64, n), mask: uint64(n - 1)}
}

// Insert ignores depth and never reports improved; see VisitedSet.
func (t *memTable) Insert(fp uint64, _ int32) (fresh, improved bool, err error) {
	if fp == 0 {
		fp = zeroFPSubstitute
	}
	sh := &t.shards[fp&t.shardMask]
	h := fp >> 7
	// Lock-free fast path: either we find fp (a dedup hit, the common
	// case in a dense state graph) or we hit an empty slot and take the
	// slow path.
	s := sh.slots.Load()
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		v := s.arr[i].Load()
		if v == fp {
			return false, false, nil
		}
		if v == 0 {
			break
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s = sh.slots.Load() // may have grown since the fast path
	for i := h & s.mask; ; i = (i + 1) & s.mask {
		v := s.arr[i].Load()
		if v == fp {
			return false, false, nil
		}
		if v == 0 {
			s.arr[i].Store(fp)
			sh.used++
			if uint64(sh.used)*2 >= uint64(len(s.arr)) {
				sh.grow(s)
			}
			return true, false, nil
		}
	}
}

// grow doubles the shard's slot array and publishes it. Called with mu
// held; the old array stays valid for concurrent lock-free readers.
func (sh *fpShard) grow(old *fpSlots) {
	ns := newFPSlots(2 * len(old.arr))
	for i := range old.arr {
		v := old.arr[i].Load()
		if v == 0 {
			continue
		}
		for j := (v >> 7) & ns.mask; ; j = (j + 1) & ns.mask {
			if ns.arr[j].Load() == 0 {
				ns.arr[j].Store(v)
				break
			}
		}
	}
	sh.slots.Store(ns)
}

func (t *memTable) Len() int64 {
	var n int64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += int64(sh.used)
		sh.mu.Unlock()
	}
	return n
}

// WriteFPFile writes the table as one sorted run. Quiescent callers
// only (the engines write checkpoints while no insert is in flight).
func (t *memTable) WriteFPFile(path string) error {
	fps := make([]uint64, 0, t.Len())
	for i := range t.shards {
		s := t.shards[i].slots.Load()
		for j := range s.arr {
			if fp := s.arr[j].Load(); fp != 0 {
				fps = append(fps, fp)
			}
		}
	}
	slices.Sort(fps)
	_, err := writeFPRun(path, fps)
	return err
}

func (t *memTable) LoadFPFile(path string) error {
	return readFPRun(path, func(fp uint64) error {
		_, _, err := t.Insert(fp, 0)
		return err
	})
}

func (t *memTable) Close() error { return nil }
