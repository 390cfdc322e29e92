package replacement

import "itpsim/internal/arch"

// Mockingjay (Shah, Jain & Lin, HPCA'22) mimics Belady's MIN policy by
// predicting each block's reuse distance from a PC-indexed predictor
// trained on a set sampler, and evicting the line whose next use is
// estimated to be farthest in the future.
//
// This is a re-implementation from the paper's description (the original
// artifact is C++): a sampler records recent block accesses for a subset
// of sets and trains the reuse-distance predictor on observed distances
// (or "scan" for blocks that age out of the sampler unreused); cache lines
// carry an estimated time of next access (ETA); the victim is the line
// with the maximum ETA, with lines predicted "scan" evicted first.
type Mockingjay struct {
	pred          []int32 // predicted reuse distance per signature, -1 = scan
	predMask      uint64
	sampler       map[uint64]*samplerEntry
	samplerFIFO   []uint64
	sampleSetMask int
	clock         uint64 // logical time: one tick per cache access
	maxRD         int32
}

type samplerEntry struct {
	sig  uint16
	time uint64
}

const (
	mjTableSize   = 8192
	mjSamplerCap  = 4096
	mjSampleEvery = 8 // sample 1 of every 8 sets
)

// NewMockingjay returns a Mockingjay policy for the given geometry; maxRD
// scales with cache capacity (a block not reused within ~4x the cache's
// block count is treated as a scan).
func NewMockingjay(sets, ways int) *Mockingjay {
	m := &Mockingjay{
		pred:          make([]int32, mjTableSize),
		predMask:      mjTableSize - 1,
		sampler:       make(map[uint64]*samplerEntry),
		sampleSetMask: mjSampleEvery - 1,
		maxRD:         int32(4 * sets * ways),
	}
	for i := range m.pred {
		m.pred[i] = m.maxRD / 2
	}
	return m
}

// Name implements Policy.
func (*Mockingjay) Name() string { return "mockingjay" }

func (m *Mockingjay) signature(pc uint64) uint16 {
	h := pc >> 2
	h ^= h >> 11
	h *= 0xff51afd7ed558ccd
	return uint16((h >> 19) & m.predMask)
}

// train nudges the predictor for sig toward the observed reuse distance
// using a 1/4 exponential moving average; rd < 0 records a scan.
func (m *Mockingjay) train(sig uint16, rd int32) {
	cur := m.pred[sig]
	if rd < 0 || rd > m.maxRD {
		rd = m.maxRD
	}
	m.pred[sig] = cur + (rd-cur)/4
}

// sample records an access to blockAddr in the sampler (for sampled sets)
// and trains on the previously recorded access if present.
func (m *Mockingjay) sample(setIdx int, blockAddr, pc uint64) {
	if setIdx&m.sampleSetMask != 0 {
		return
	}
	sig := m.signature(pc)
	if prev, ok := m.sampler[blockAddr]; ok {
		m.train(prev.sig, int32(m.clock-prev.time))
		prev.sig = sig
		prev.time = m.clock
		return
	}
	// Bound the sampler: age out the oldest entries FIFO-style, training
	// them as scans (they were not reused while sampled).
	if len(m.sampler) >= mjSamplerCap {
		for len(m.samplerFIFO) > 0 {
			old := m.samplerFIFO[0]
			m.samplerFIFO = m.samplerFIFO[1:]
			if e, ok := m.sampler[old]; ok {
				m.train(e.sig, -1)
				delete(m.sampler, old)
				break
			}
		}
	}
	m.sampler[blockAddr] = &samplerEntry{sig: sig, time: m.clock}
	m.samplerFIFO = append(m.samplerFIFO, blockAddr)
}

// Victim implements Policy: evict the line whose estimated next access is
// farthest in the future; expired predictions (ETA already passed) lose
// ties to live ones so provably-stale lines go first.
func (m *Mockingjay) Victim(_ int, set []Line, _ *Stack, _ *arch.Access) int {
	victim, worst := 0, int64(-1<<62)
	for i := range set {
		// Score: how far in the future we expect the next access;
		// overdue lines score by how overdue they are plus a large
		// bias so they are preferred.
		score := int64(set[i].ETA) - int64(m.clock)
		if score < 0 {
			score = -score + int64(m.maxRD)
		}
		if score > worst {
			victim, worst = i, score
		}
	}
	return victim
}

// OnFill implements Policy.
func (m *Mockingjay) OnFill(setIdx int, set []Line, _ *Stack, way int, in *arch.Access) {
	m.clock++
	m.sample(setIdx, set[way].Tag, in.PC)
	sig := m.signature(in.PC)
	set[way].Sig = sig
	set[way].ETA = m.clock + uint64(m.pred[sig])
}

// OnHit implements Policy: re-predict from the hitting PC.
func (m *Mockingjay) OnHit(setIdx int, set []Line, _ *Stack, way int, in *arch.Access) {
	m.clock++
	m.sample(setIdx, set[way].Tag, in.PC)
	sig := m.signature(in.PC)
	set[way].Sig = sig
	set[way].ETA = m.clock + uint64(m.pred[sig])
}

// OnEvict implements Policy.
func (*Mockingjay) OnEvict(int, []Line, int) {}
