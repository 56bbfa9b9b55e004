package main

import (
	"fmt"
	"io"
)

// metricDef is one named metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the gated metrics a --trace 0 run reports, measured with
// every instrument off. Only set-up time is gated: every throughput,
// latency and cost figure follows the host's steal by more than the
// largest bound a gate may use (see NOTES.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
}

// perLayer are the metrics a --trace 1 run reports. The first block is
// the end-to-end detail (throughput, CPU and allocation per operation,
// percentiles, tpmC, sim_s), taken from the run's untraced window; the
// rest come from the traced window, at public boundaries only. A metric
// a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"ops_per_s", "1/s"}, {"cpu_us_per_op", "us"}, {"alloc_bytes_per_op", "B/op"},
	{"peak_rss_mb", "MB"}, {"fail_ratio", "ratio"},
	{"read_p50_us", "us"}, {"read_p99_us", "us"}, {"read_p999_us", "us"},
	{"write_p50_us", "us"}, {"write_p99_us", "us"}, {"write_p999_us", "us"},
	{"tpmC", "tx/min"}, {"tx_per_s", "1/s"}, {"cpu_ms_per_tx", "ms"},
	{"page_read_p50_us", "us"}, {"page_read_p99_us", "us"}, {"page_read_p999_us", "us"},
	{"page_write_p50_us", "us"}, {"page_write_p99_us", "us"}, {"page_write_p999_us", "us"},
	{"commit_p50_us", "us"}, {"commit_p99_us", "us"}, {"commit_p999_us", "us"},
	{"sim_s", "s"},
	{"host.steal_pct", "%"},

	{"netv3.submit_ns", "ns"}, {"netv3.wait_ns", "ns"},
	{"netv3.stage.submit_ns", "ns"}, {"netv3.stage.wire_write_ns", "ns"},
	{"netv3.stage.srv_sched_ns", "ns"}, {"netv3.stage.srv_cpu_ns", "ns"},
	{"netv3.stage.srv_diskq_ns", "ns"}, {"netv3.stage.srv_device_ns", "ns"},
	{"netv3.stage.net_ns", "ns"}, {"netv3.stage.delivery_ns", "ns"},
	{"netv3.stage.wakeup_ns", "ns"},
	{"netv3.stage_residual_pct", "%"},

	{"sys.read_calls_per_op", "calls/op"}, {"sys.write_calls_per_op", "calls/op"},
	{"sys.ctx_switches_per_op", "1/op"},

	{"server.cache_hit_ratio", "ratio"}, {"server.dispatch_ns", "ns"},
	{"server.queue_wait_ns", "ns"}, {"server.disk_read_ns", "ns"},
	{"server.disk_write_ns", "ns"}, {"sched.sheds", "count"},

	{"diskq.reads_per_miss", "ratio"}, {"diskq.batches", "count"},
	{"diskq.ops_per_batch", "ops"}, {"diskq.fallbacks", "count"},
	{"diskq.retries", "count"}, {"destage.blocks_per_run", "blocks"},
	{"destage.writethrough_fallbacks", "count"},
	{"device.write_bytes_per_user_byte", "ratio"},

	{"bufpool.alloc_ratio", "ratio"}, {"gc.cycles", "count"}, {"gc.pause_ms", "ms"},

	{"vvault.read_batch_p99_us", "us"}, {"vvault.write_p99_us", "us"},
	{"vvault.flush_p99_us", "us"}, {"vvault.degraded_ops", "count"},

	{"repl.appends_per_write", "ratio"}, {"repl.log_depth", "records"},
	{"repl.fallbacks", "count"}, {"repl.watermark_lag", "records"},

	{"workload.pool_hit_ratio", "ratio"}, {"workload.phys_reads_per_tx", "1/tx"},
	{"workload.phys_writes_per_tx", "1/tx"}, {"workload.log_flushes_per_s", "1/s"},
	{"workload.store_share", "ratio"}, {"workload.errors", "count"},
	{"workload.overflows", "count"},

	{"sim.tpmC", "tx/min"}, {"sim.phys_reads", "count"}, {"sim.interrupts", "count"},

	{"cpu_share.wire", "%"}, {"cpu_share.bufpool", "%"}, {"cpu_share.netv3", "%"},
	{"cpu_share.mqcache", "%"}, {"cpu_share.diskq", "%"}, {"cpu_share.vvault", "%"},
	{"cpu_share.repl", "%"}, {"cpu_share.workload", "%"}, {"cpu_share.obs", "%"},
	{"cpu_share.sim", "%"}, {"cpu_share.core", "%"}, {"cpu_share.vi", "%"},
	{"cpu_share.vinic", "%"}, {"cpu_share.oltp", "%"},
	{"cpu_share.runtime.syscall", "%"}, {"cpu_share.runtime.sched", "%"},
	{"cpu_share.runtime.gc", "%"}, {"cpu_share.other", "%"},

	{"trace_overhead_pct", "%"},
}

// unitOf finds a metric's unit in the two catalogues.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

// values holds one run's measured metrics by name.
type values map[string]float64

func (v values) set(name string, x float64) {
	unitOf(name) // every value must be a catalogued metric
	v[name] = x
}

// jsonMetric is one entry of the result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick renders the catalogue defs from v; a metric the workload does
// not exercise reads 0.
func (v values) pick(defs []metricDef) map[string]jsonMetric {
	out := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		out[d.name] = jsonMetric{Value: v[d.name], Unit: d.unit}
	}
	return out
}

// report prints every measured metric, one per line, in catalogue
// order.
func (v values) report(w io.Writer, workload string) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if x, ok := v[d.name]; ok {
				fmt.Fprintf(w, "%-12s %-34s %16.6g %s\n", workload, d.name, x, d.unit)
			}
		}
	}
}
