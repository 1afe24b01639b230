package canon

import (
	"slices"

	"anonshm/internal/machine"
)

// CanonicalForm returns the word sequence h's Fingerprint hashes for sys
// (before aux is folded in): its least mirror.
func CanonicalForm(h Hasher, sys *machine.System) []uint64 {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	return slices.Clone(h.(*hasher).leastMirror(s, sys))
}
