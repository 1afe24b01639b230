package store

import "anonshm/internal/machine"

// Step is one packed exploration step: which processor moved, which
// pending-op choice it took (or that it crashed). 32 bits suffice:
// machine.NewSystem caps systems at 64 processors, and nondeterministic
// choice fans out over a machine's pending ops, far below 2^24. It is
// the one step record of the explorer: both engines expand a state by
// applying its successor steps and checkpoint them in paths, and a
// counterexample trace is a path of them replayed from the root.
type Step uint32

const (
	stepCrashBit = 1 << 0
	stepProcBits = 7 // bits 1..7: processor index (< 64 guaranteed)
)

// PackStep encodes a processor op step.
func PackStep(proc, choice int) Step {
	return Step(uint32(proc)<<1 | uint32(choice)<<(1+stepProcBits))
}

// PackCrash encodes a crash step.
func PackCrash(proc int) Step {
	return Step(uint32(proc)<<1 | stepCrashBit)
}

// Crash reports whether the step is a crash.
func (s Step) Crash() bool { return s&stepCrashBit != 0 }

// Proc returns the processor index.
func (s Step) Proc() int { return int(s>>1) & (1<<stepProcBits - 1) }

// Choice returns the pending-op choice index (0 for crashes).
func (s Step) Choice() int { return int(s >> (1 + stepProcBits)) }

// StepOf packs the step a trace entry records: the inverse of Apply's
// report.
func StepOf(info machine.StepInfo) Step {
	if info.Op.Kind == machine.OpCrash {
		return PackCrash(info.Proc)
	}
	return PackStep(info.Proc, info.Choice)
}

// Apply takes the step on sys and reports what it did.
func (s Step) Apply(sys *machine.System) (machine.StepInfo, error) {
	if s.Crash() {
		return sys.Crash(s.Proc())
	}
	return sys.Step(s.Proc(), s.Choice())
}

// PathNode is one link of a state's discovery path, shared structurally
// between sibling frontier entries: a child's node points at its
// parent's, so a whole frontier of depth-d entries costs O(states on
// the discovery tree) nodes, not O(entries × d). The garbage collector
// reclaims prefixes as soon as no live entry (in RAM) references them;
// spilled segments encode the steps by value and drop the chain. The
// path is the state's provenance: what a spilling frontier replays,
// what a checkpoint writes, and what the explorer replays into a
// counterexample trace.
type PathNode struct {
	// Parent is the discovering state's node (nil at the root).
	Parent *PathNode
	// Step is the step that produced this state from Parent's.
	Step Step
}

// Extend returns a node for the state reached from p by step.
func (p *PathNode) Extend(step Step) *PathNode {
	return &PathNode{Parent: p, Step: step}
}

// Steps returns the root-to-state step sequence.
func (p *PathNode) Steps() []Step {
	n := 0
	for q := p; q != nil; q = q.Parent {
		n++
	}
	out := make([]Step, n)
	for q := p; q != nil; q = q.Parent {
		n--
		out[n] = q.Step
	}
	return out
}
