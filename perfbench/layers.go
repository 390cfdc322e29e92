package main

import (
	"fmt"
	"time"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/core"
	"itpsim/internal/replacement"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/tlb"
	"itpsim/internal/workload"
)

// Unit-cost geometry: each layer replays unitInstr instructions of the
// workload's own stream (or the requests they cause) in a loop for at
// least unitBudget.
const (
	unitInstr  = 200_000
	unitBudget = 400 * time.Millisecond
)

// timeLoop calls body until budget has elapsed (at least once) and
// returns the nanoseconds per item, body returning how many items it
// processed and how long the timed part took.
func timeLoop(budget time.Duration, body func() (int, time.Duration, error)) (float64, error) {
	var items int
	var spent time.Duration
	for items == 0 || spent < budget {
		n, d, err := body()
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, fmt.Errorf("layer loop processed nothing")
		}
		items += n
		spent += d
	}
	return float64(spent.Nanoseconds()) / float64(items), nil
}

// unitCosts replays the workload's stream through single layers' public
// functions: the generator (FillBatch), the detailed and functional
// machine steps (on a recorded replay, so generation is excluded), an
// iTP STLB fed the ITLB/DTLB miss stream, and an xPTP L2C fed the L1D
// miss stream over a constant-latency terminal.
func unitCosts(newStream func() workload.Stream, cfg config.SystemConfig) (map[string]metric, error) {
	instrs := make([]workload.Instr, unitInstr)
	if n := workload.FillBatch(newStream(), instrs); n != unitInstr {
		return nil, fmt.Errorf("stream ended after %d instructions", n)
	}
	m := map[string]metric{}
	var err error
	ns := func(name, unit string, body func() (int, time.Duration, error)) {
		if err != nil {
			return
		}
		var v float64
		v, err = timeLoop(unitBudget, body)
		m[name] = metric{v, unit}
	}

	buf := make([]workload.Instr, workload.BatchSize)
	ns("workload.ns_per_instr", "ns/instr", func() (int, time.Duration, error) {
		s := newStream()
		start := time.Now()
		n := 0
		for n < unitInstr {
			n += workload.FillBatch(s, buf)
		}
		return n, time.Since(start), nil
	})
	ns("sim.detailed_ns_per_instr", "ns/instr", func() (int, time.Duration, error) {
		mc, err := sim.NewMachine(cfg)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		_, err = mc.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, unitInstr)
		return unitInstr, time.Since(start), err
	})
	ns("sim.functional_ns_per_instr", "ns/instr", func() (int, time.Duration, error) {
		mc, err := sim.NewMachine(cfg)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		err = mc.WarmFunctional(&workload.Replay{Instrs: instrs}, unitInstr)
		return unitInstr, time.Since(start), err
	})

	pages := firstLevelMisses(instrs, cfg)
	stlb := tlb.New("stlb", cfg.STLB.Sets, cfg.STLB.Ways, core.NewITP(cfg.ITP))
	ns("tlb.stlb_ns_per_lookup", "ns/lookup", func() (int, time.Duration, error) {
		start := time.Now()
		for _, r := range pages {
			if _, _, hit := stlb.Lookup(r.Addr, uint64(r.PC), r.Class, 0); !hit {
				stlb.Insert(r.Addr, uint64(r.Addr)>>arch.PageBits4K, arch.PageBits4K, r.Class, uint64(r.PC), 0)
			}
		}
		return len(pages), time.Since(start), nil
	})

	blocks := l1dMisses(instrs, cfg)
	l2c := cache.New("l2c", cfg.L2C, core.NewXPTP(cfg.XPTP), fixedLatency{}, nil)
	var now uint64
	acc := new(arch.Access)
	ns("cache.l2c_ns_per_access", "ns/access", func() (int, time.Duration, error) {
		start := time.Now()
		for i := range blocks {
			*acc = blocks[i]
			now += 4
			l2c.Access(now, acc)
		}
		return len(blocks), time.Since(start), nil
	})
	return m, err
}

// firstLevelMisses filters the instructions' page references through an
// ITLB and a DTLB of the configured geometry (LRU) and returns the
// requests that reach the STLB, in order.
func firstLevelMisses(instrs []workload.Instr, cfg config.SystemConfig) []arch.Access {
	itlb := tlb.New("itlb", cfg.ITLB.Sets, cfg.ITLB.Ways, tlb.NewLRU())
	dtlb := tlb.New("dtlb", cfg.DTLB.Sets, cfg.DTLB.Ways, tlb.NewLRU())
	var out []arch.Access
	ref := func(t *tlb.TLB, va, pc arch.Addr, class arch.Class) {
		if _, _, hit := t.Lookup(va, uint64(pc), class, 0); !hit {
			t.Insert(va, uint64(va)>>arch.PageBits4K, arch.PageBits4K, class, uint64(pc), 0)
			out = append(out, arch.Access{Addr: va, PC: pc, Class: class})
		}
	}
	for _, in := range instrs {
		ref(itlb, in.PC, in.PC, arch.InstrClass)
		if in.LoadAddr != 0 {
			ref(dtlb, in.LoadAddr, in.PC, arch.DataClass)
		}
		if in.StoreAddr != 0 {
			ref(dtlb, in.StoreAddr, in.PC, arch.DataClass)
		}
	}
	return out
}

// l1dMisses filters the instructions' data references through an L1D of
// the configured geometry (LRU) and returns the requests it sends on.
func l1dMisses(instrs []workload.Instr, cfg config.SystemConfig) []arch.Access {
	var rec recorder
	l1d := cache.New("l1d", cfg.L1D, replacement.NewLRU(), &rec, nil)
	acc := new(arch.Access)
	for i, in := range instrs {
		if in.LoadAddr != 0 {
			*acc = arch.Access{Addr: in.LoadAddr, PC: in.PC, Kind: arch.Load, Class: arch.DataClass}
			l1d.Access(uint64(4*i), acc)
		}
		if in.StoreAddr != 0 {
			*acc = arch.Access{Addr: in.StoreAddr, PC: in.PC, Kind: arch.Store, Class: arch.DataClass}
			l1d.Access(uint64(4*i), acc)
		}
	}
	return rec.accs
}

// recorder is a terminal cache level that keeps every request it gets.
type recorder struct{ accs []arch.Access }

func (r *recorder) Access(now uint64, acc *arch.Access) uint64 {
	r.accs = append(r.accs, *acc)
	return now + 100
}

// fixedLatency is a constant-latency terminal cache level.
type fixedLatency struct{}

func (fixedLatency) Access(now uint64, _ *arch.Access) uint64 { return now + 100 }

// modelCounts reports simulated (exact) statistics of a run.
func modelCounts(st *stats.Sim) map[string]metric {
	n := st.TotalInstructions()
	var psc uint64
	for _, h := range st.PSCHits {
		psc += h
	}
	count := func(v uint64) metric { return metric{float64(v), "count"} }
	mpki := func(v float64) metric { return metric{v, "1/kinstr"} }
	return map[string]metric{
		"model.stlb.instr_mpki": mpki(st.STLB.BucketMPKI(stats.BInstr, n)),
		"model.stlb.data_mpki":  mpki(st.STLB.BucketMPKI(stats.BData, n)),
		"model.itlb.mpki":       mpki(st.ITLB.MPKI(n)),
		"model.l2c.mpki":        mpki(st.L2C.MPKI(n)),
		"model.llc.mpki":        mpki(st.LLC.MPKI(n)),
		"model.walks.instr":     count(st.PageWalks[arch.InstrClass]),
		"model.walks.data":      count(st.PageWalks[arch.DataClass]),
		"model.psc_hits":        count(psc),
		"model.dram_accesses":   count(st.DRAMAccesses),
		"model.xptp_on_windows": count(st.XPTPEnabledWindows),
	}
}
