package main

import (
	"time"

	"dasesim/internal/cache"
	"dasesim/internal/config"
	"dasesim/internal/dram"
	"dasesim/internal/icnt"
	"dasesim/internal/kernels"
	"dasesim/internal/memreq"
	"dasesim/internal/smcore"
)

// The component replays drive one engine layer alone with the address
// streams of the repro kernels, so a change to that layer shows in its own
// figure: the DRAM controller, one SM, the L2 cache and the crossbar.

// access is one cache-line access of a recorded stream.
type access struct {
	app   memreq.AppID
	addr  uint64
	write bool
}

// appBase places each app in its own address space, as the engine does.
func appBase(app int) uint64 { return (uint64(app) + 1) << 40 }

func replayLinesPerKernel(short bool) int {
	if short {
		return 2_000
	}
	return 20_000
}

// recordStreams records up to perKernel line accesses of each kernel from
// its warp streams (warps of a block interleaved, blocks in order), then
// interleaves the kernels round robin.
func recordStreams(ks []kernels.Profile, seed uint64, perKernel int) []access {
	per := make([][]access, len(ks))
	for app := range ks {
		p := &ks[app]
		var op kernels.Op
		for blk := uint64(0); len(per[app]) < perKernel && blk < uint64(p.Blocks); blk++ {
			ws := make([]*kernels.WarpStream, p.WarpsPerBlock)
			for w := range ws {
				ws[w] = kernels.NewWarpStream(p, appBase(app), blk, w, seed)
			}
			for live := len(ws); live > 0 && len(per[app]) < perKernel; {
				live = 0
				for _, s := range ws {
					if !s.Next(&op) {
						continue
					}
					live++
					if !op.Mem {
						continue
					}
					for l := 0; l < op.NLines; l++ {
						per[app] = append(per[app], access{memreq.AppID(app), op.Lines[l], op.Write})
					}
				}
			}
		}
	}
	var out []access
	for i := 0; ; i++ {
		added := false
		for app := range per {
			if i < len(per[app]) {
				out = append(out, per[app][i])
				added = true
			}
		}
		if !added {
			return out
		}
	}
}

func runReplays(b *bench, streams []access, ks []kernels.Profile, seed uint64, short bool) {
	cfg := config.Default()
	amap := memreq.NewAddrMap(cfg.L2.LineBytes, cfg.NumMCs, cfg.Mem.NumBanks, cfg.Mem.RowBytes)
	smCycles := uint64(20_000)
	if short {
		smCycles = 2_000
	}
	b.set("cache.replay_ns_per_access", replayCache(cfg, amap, streams, len(ks)))
	b.set("dram.replay_ns_per_cycle", replayDRAM(cfg, amap, streams, len(ks)))
	b.set("icnt.replay_ns_per_req", replayICNT(cfg, amap, streams))
	b.set("smcore.replay_ns_per_cycle", replaySM(cfg, amap, ks, seed, smCycles))
}

// replayCache runs every access through one L2 slice, filling misses at
// once, and returns the host time per access.
func replayCache(cfg config.Config, amap memreq.AddrMap, streams []access, apps int) float64 {
	c := cache.NewCache(cfg.L2, apps)
	start := time.Now()
	for _, a := range streams {
		set := amap.CacheSet(a.addr, c.Sets())
		if c.AccessRW(a.app, set, a.addr, a.write) == cache.Miss {
			c.FillRW(a.app, set, a.addr, a.write)
		}
	}
	return float64(time.Since(start)) / float64(len(streams))
}

// replayDRAM feeds the partition-0 accesses to one controller, one arrival
// per cycle while it has room, until all are served; it returns the host
// time per controller cycle.
func replayDRAM(cfg config.Config, amap memreq.AddrMap, streams []access, apps int) float64 {
	mc := dram.NewController(cfg.Mem, amap, 0, apps)
	pool := &memreq.Pool{}
	var mine []access
	for _, a := range streams {
		if amap.Partition(a.addr) == 0 {
			mine = append(mine, a)
		}
	}
	next, served := 0, 0
	var now uint64
	start := time.Now()
	for served < len(mine) && now < uint64(len(mine))*1000 {
		if next < len(mine) && mc.CanAccept() {
			r := pool.Get()
			a := mine[next]
			r.App, r.SM, r.Addr, r.Issued = a.app, 0, a.addr, now
			r.Kind = memreq.Read
			if a.write {
				r.Kind = memreq.Write
			}
			mc.Enqueue(r)
			next++
		}
		mc.Cycle(now)
		for _, r := range mc.Replies() {
			served++
			pool.Put(r)
		}
		now++
	}
	return float64(time.Since(start)) / float64(now)
}

// replayICNT sends every access from its SM (round robin over SMs) to its
// partition and straight back, and returns the host time per round trip.
func replayICNT(cfg config.Config, amap memreq.AddrMap, streams []access) float64 {
	ic := icnt.New(cfg.ICNT, cfg.NumSMs, cfg.NumMCs, cfg.L2.LineBytes)
	pool := &memreq.Pool{}
	const replyBuffer = 8
	held := make([][]*memreq.Request, cfg.NumMCs) // replies not yet injected toward their SM
	next, delivered := 0, 0
	var now uint64
	start := time.Now()
	for delivered < len(streams) && now < uint64(len(streams))*100 {
		for sm := 0; sm < cfg.NumSMs && next < len(streams); sm++ {
			a := streams[next]
			part := amap.Partition(a.addr)
			if !ic.CanSendToMem(part) {
				continue
			}
			r := pool.Get()
			r.App, r.SM, r.Addr, r.Kind, r.Issued = a.app, sm, a.addr, memreq.Read, now
			ic.SendToMem(part, r, now)
			next++
		}
		for part := 0; part < cfg.NumMCs; part++ {
			// Up to four replies leave a partition per cycle, as in the
			// engine; arrivals queue behind a short reply buffer, so a full
			// SM port backs traffic up into the crossbar.
			for k := 0; k < 4 && len(held[part]) > 0 && ic.CanSendToSM(held[part][0].SM); k++ {
				ic.SendToSM(part, held[part][0], now)
				held[part] = held[part][1:]
			}
			for len(held[part]) < replyBuffer {
				r := ic.RecvAtMem(part, now)
				if r == nil {
					break
				}
				held[part] = append(held[part], r)
			}
		}
		for sm := 0; sm < cfg.NumSMs; sm++ {
			for r := ic.RecvAtSM(sm, now); r != nil; r = ic.RecvAtSM(sm, now) {
				delivered++
				pool.Put(r)
			}
		}
		now++
	}
	return float64(time.Since(start)) / float64(delivered)
}

// replaySource hands an SM an endless sequence of one kernel's thread
// blocks.
type replaySource struct {
	p    *kernels.Profile
	base uint64
	seed uint64
	next uint64
}

func (s *replaySource) WarpsPerBlock() int { return s.p.WarpsPerBlock }

func (s *replaySource) NextBlock() ([]*kernels.WarpStream, bool) {
	ws := make([]*kernels.WarpStream, s.p.WarpsPerBlock)
	for w := range ws {
		ws[w] = kernels.NewWarpStream(s.p, s.base, s.next, w, s.seed)
	}
	s.next++
	return ws, true
}

func (s *replaySource) BlockFinished() {}

// replaySM runs each kernel for cycles on one SM whose memory answers every
// load after a fixed latency, and returns the host time per SM cycle.
func replaySM(cfg config.Config, amap memreq.AddrMap, ks []kernels.Profile, seed, cycles uint64) float64 {
	const memLatency = 200
	var total time.Duration
	var n uint64
	for app := range ks {
		pool := &memreq.Pool{}
		sm := smcore.New(0, cfg, amap, pool)
		sm.Assign(0, &replaySource{p: &ks[app], base: appBase(app), seed: seed})
		type pending struct {
			r     *memreq.Request
			ready uint64
		}
		var inflight []pending
		start := time.Now()
		for now := uint64(0); now < cycles; now++ {
			sm.Cycle(now)
			for k := 0; k < 2 && sm.OutboxLen() > 0; k++ {
				r := sm.PopOutbox()
				if r.Kind == memreq.Read {
					inflight = append(inflight, pending{r, now + memLatency})
				} else {
					pool.Put(r)
				}
			}
			i := 0
			for ; i < len(inflight) && inflight[i].ready <= now; i++ {
				sm.DeliverReply(inflight[i].r, now)
			}
			inflight = inflight[i:]
		}
		total += time.Since(start)
		n += cycles
	}
	return float64(total) / float64(n)
}
