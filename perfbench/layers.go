package main

import "pythia/internal/harness"

// simLayers derives a traced simulation run's per-layer metrics: times
// from the traced operations, and work counts from each spec's first
// result, which every other run of the spec equals.
func simLayers(out *outcome, specs []harness.RunSpec, recs []specRecord, lt layerTotals) {
	out.set("sim.specs", float64(len(recs)))
	out.set("sim.traced_ops", float64(lt.ops))
	out.set("sim.traced_s", lt.opNs/1e9)
	out.set("sim.kinstr", lt.kinstr)

	coreCalls := float64(lt.core.trains + lt.core.fills)
	out.set("core.train_calls", coreCalls)
	out.set("core.train_ns", ratio(float64(lt.core.ns), coreCalls))
	out.set("core.train_share", ratio(float64(lt.core.ns), lt.opNs))
	out.set("core.train_calls_per_kinstr", ratio(float64(lt.core.trains), lt.kinstr))
	pfCalls := float64(lt.prefetch.trains + lt.prefetch.fills)
	out.set("prefetch.train_calls", pfCalls)
	out.set("prefetch.train_ns", ratio(float64(lt.prefetch.ns), pfCalls))
	out.set("prefetch.train_share", ratio(float64(lt.prefetch.ns), lt.opNs))

	selfNs := lt.opNs - float64(lt.core.ns+lt.prefetch.ns)
	out.set("cpu.kernel_self_share", ratio(selfNs, lt.opNs))
	out.set("cpu.ns_per_kinstr", ratio(selfNs, lt.kinstr))

	if len(lt.fillSec) > 0 {
		out.set("stream.fill_s", median(lt.fillSec))
	}
	out.set("stream.drain_records", lt.drainRecs)
	out.set("stream.drain_mrec_per_s", ratio(lt.drainRecs/1e6, lt.drainSec))
	out.set("stream.cache_lookups", lt.cacheLookups)
	out.set("stream.cache_hit_ratio", ratio(lt.cacheHits, lt.cacheLookups))
	out.set("trace.gen_records", lt.genRecs)
	out.set("trace.gen_mrec_per_s", ratio(lt.genRecs/1e6, lt.genSec))

	out.set("runtime.ops", float64(lt.plainOps))
	out.set("runtime.alloc_mb_per_op", ratio(lt.allocBytes/(1<<20), float64(lt.plainOps)))
	out.set("runtime.mallocs_per_op", ratio(lt.mallocs, float64(lt.plainOps)))
	out.set("runtime.gc_cycles_per_op", ratio(lt.gcs, float64(lt.plainOps)))

	var (
		kinstr, l1, l2, llc                        float64
		issued, useful, late, dropped              float64
		reads, rowHits, rowMisses, busBusy, cycles float64
		ipcSum, ipcN, highBW                       float64
		demands, taken                             float64
	)
	for i, r := range recs {
		res, spec := r.ref, specs[i]
		kinstr += float64(spec.Scale.Sim*int64(len(res.Stats))) / 1e3
		for c, s := range res.Stats {
			l1 += float64(s.L1Misses)
			l2 += float64(s.L2Misses)
			llc += float64(s.LLCLoadMisses)
			issued += float64(s.PfIssued)
			useful += float64(s.PfUseful)
			late += float64(s.PfLate)
			dropped += float64(s.PfDropped)
			ipcSum += res.IPC[c]
			ipcN++
		}
		reads += float64(res.DRAM.Reads)
		rowHits += float64(res.DRAM.RowHits)
		rowMisses += float64(res.DRAM.RowMisses)
		busBusy += float64(res.DRAM.BusBusy)
		cycles += float64(res.DRAM.LastCycle-res.DRAM.FirstCycle) * float64(spec.CacheCfg.DRAM.Channels)
		highBW += res.Buckets[len(res.Buckets)-1]
		demands += float64(r.demands)
		taken += float64(r.taken)
	}
	out.set("cpu.ipc", ratio(ipcSum, ipcN))
	out.set("core.demands", demands)
	out.set("core.prefetch_action_ratio", ratio(taken, demands))
	out.set("cache.measured_kinstr", kinstr)
	out.set("cache.l1_mpki", ratio(l1, kinstr))
	out.set("cache.l2_mpki", ratio(l2, kinstr))
	out.set("cache.llc_mpki", ratio(llc, kinstr))
	out.set("cache.pf_issued", issued)
	out.set("cache.pf_accuracy", ratio(useful, issued))
	out.set("cache.pf_useful", useful)
	out.set("cache.pf_late_ratio", ratio(late, useful))
	out.set("cache.pf_candidates", issued+dropped)
	out.set("cache.pf_dropped_ratio", ratio(dropped, issued+dropped))
	out.set("dram.reads_per_kinstr", ratio(reads, kinstr))
	out.set("dram.accesses", rowHits+rowMisses)
	out.set("dram.row_hit_ratio", ratio(rowHits, rowHits+rowMisses))
	out.set("dram.cycles", cycles)
	out.set("dram.bus_util", ratio(busBusy, cycles))
	out.set("dram.high_bw_share", ratio(highBW, float64(len(recs))))

	// Every operation of a workload simulates the same instructions, so
	// the typical job time moves as the inverse of the simulation rate.
	plain, traced := simRate(recs, false), simRate(recs, true)
	out.set("tracing.sim_rate_ratio", ratio(traced, plain))
	out.set("tracing.job_p50_ratio", ratio(plain, traced))
}
