package main

// feed says which end-to-end metric a per-layer metric should move, and on
// which workloads; elsewhere the prediction is no change. The acceptance
// contract gives BENCHMARK.json a fixed set of keys, so the mapping lives
// here, is printed beside every per-layer value, and is held to
// BENCHMARK.json's names by the tier-1 test.
type feed struct {
	metric string
	on     string
}

const (
	engines   = "paper-lossy chat-dense fleet-scan"
	scenarios = "paper-lossy chat-dense drive-eval"
	allFour   = "paper-lossy chat-dense drive-eval fleet-scan"
	// exact marks counts and quality numbers the seed determines: a
	// speed-only change leaves them identical, and when one moves it explains
	// a quality row of -compare rather than a timing.
	exact = "-"
)

var feeds = map[string]feed{
	// The end-to-end timings as the clock read them, and what they were
	// divided by.
	"run_wall_s":     {"vsec_per_s", allFour},
	"setup_wall_s":   {"setup_s", allFour},
	"box.slowdown_x": {"vsec_per_s", allFour},

	"core.run_s":                 {"vsec_per_s", engines},
	"core.ontick_s":              {"vsec_per_s", "chat-dense paper-lossy"},
	"core.ontick_share":          {"vsec_per_s", "chat-dense paper-lossy"},
	"core.chat_ms":               {"vsec_per_s", "chat-dense"},
	"core.chat_tick_ms_p99":      {"vsec_per_s", "chat-dense"},
	"chats_per_s":                {"vsec_per_s", "chat-dense"},
	"model.train_s":              {"vsec_per_s", "paper-lossy chat-dense"},
	"model.train_share":          {"vsec_per_s", "paper-lossy chat-dense"},
	"model.train_step_in_run_us": {"vsec_per_s", "paper-lossy chat-dense"},
	"core.tick_other_s":          {"vsec_per_s", "fleet-scan"},
	"core.tick_other_share":      {"vsec_per_s", "fleet-scan"},
	"core.tick_ms_p50":           {"vsec_per_s", "fleet-scan"},
	"core.tick_ms_p99":           {"vsec_per_s", "fleet-scan"},

	"final_probe_loss":         {exact, scenarios},
	"model_recv_rate":          {exact, "paper-lossy chat-dense"},
	"success_rate_mean":        {exact, "drive-eval"},
	"model.train_steps":        {exact, "paper-lossy chat-dense"},
	"chat.initiated":           {exact, "paper-lossy chat-dense"},
	"chat.completed":           {exact, "paper-lossy chat-dense"},
	"chat.aborted":             {exact, "paper-lossy chat-dense"},
	"chat.completed_ratio":     {exact, "paper-lossy chat-dense"},
	"transfer.model.count":     {exact, "paper-lossy chat-dense"},
	"transfer.model.ok_ratio":  {exact, "paper-lossy chat-dense"},
	"bytes.model.delivered":    {exact, "paper-lossy chat-dense"},
	"bytes.coreset.delivered":  {exact, "paper-lossy chat-dense"},
	"aggregation.count":        {exact, "paper-lossy chat-dense"},
	"coreset.rebuilds":         {exact, "paper-lossy chat-dense"},
	"coreset.leaves_rebuilt":   {exact, "paper-lossy chat-dense"},
	"coreset.leaves_cached":    {exact, "paper-lossy chat-dense"},
	"coreset.leaf_cache_ratio": {exact, "paper-lossy chat-dense"},
	"coreset.absorbed_frames":  {exact, "paper-lossy chat-dense"},
	"contact.opened":           {exact, engines},
	"core.candidate_pairs":     {exact, "fleet-scan"},
	"core.matches":             {exact, "fleet-scan"},
	"sched.due_dequeued":       {exact, engines},
	"sched.buckets_touched":    {exact, engines},
	"trace.chunk_loads":        {exact, "fleet-scan"},
	"trace.chunk_evicts":       {exact, "fleet-scan"},
	"eval.predict_calls":       {exact, "drive-eval"},
	"eval.trials":              {exact, "drive-eval"},

	"trace.chunk_prefetches":    {"vsec_per_s", "fleet-scan"},
	"trace.chunk_fetch_wait_ns": {"vsec_per_s", "fleet-scan"},

	"eval.run_s":          {"vsec_per_s", "drive-eval"},
	"eval.predict_s":      {"vsec_per_s", "drive-eval"},
	"eval.world_bev_s":    {"vsec_per_s", "drive-eval"},
	"eval.trial_ms":       {"vsec_per_s", "drive-eval"},
	"control_steps_per_s": {"vsec_per_s", "drive-eval"},

	"setup.buildenv_s":         {"setup_s", scenarios},
	"setup.world_newmap_s":     {"setup_s", scenarios},
	"setup.world_spawn_s":      {"setup_s", scenarios},
	"setup.world_collect_s":    {"setup_s", scenarios},
	"setup.trace_record_s":     {"setup_s", scenarios},
	"setup.eval_probeset_s":    {"setup_s", scenarios},
	"setup.eval_buildsuite_s":  {"setup_s", scenarios},
	"setup.split_residual_pct": {"setup_s", scenarios},
	"setup.train_fleet_s":      {"setup_s", "drive-eval"},
	"setup.fleet_record_s":     {"setup_s", "fleet-scan"},
	"setup.engine_new_s":       {"setup_s", "fleet-scan"},
	"trace.chunk_write_mb_s":   {"setup_s", "fleet-scan"},
	"trace.file_mb":            {"setup_s", "fleet-scan"},

	// Informational: no end-to-end metric is held to these.
	"parallel.run_wall_auto_s": {exact, "paper-lossy"},
	"parallel.speedup_x":       {exact, "paper-lossy"},
	"trace.overhead_pct":       {exact, allFour},

	// Direct kernel calls.
	"model.train_step_us":          {"vsec_per_s", "paper-lossy chat-dense"},
	"model.loss_us":                {"vsec_per_s", "chat-dense"},
	"model.per_sample_losses_us":   {"vsec_per_s", "chat-dense"},
	"model.predict_us":             {"vsec_per_s", "drive-eval"},
	"tensor.matmul_us":             {"vsec_per_s", "paper-lossy chat-dense"},
	"tensor.matmul_transa_us":      {"vsec_per_s", "paper-lossy chat-dense"},
	"tensor.matmul_transb_us":      {"vsec_per_s", "paper-lossy chat-dense"},
	"tensor.matmul_gflops":         {"vsec_per_s", "paper-lossy chat-dense"},
	"nn.adam_step_us":              {"vsec_per_s", "paper-lossy chat-dense"},
	"compress.topk_us.psi005":      {"vsec_per_s", "chat-dense"},
	"compress.topk_us.psi020":      {"vsec_per_s", "chat-dense"},
	"compress.topk_us.psi050":      {"vsec_per_s", "chat-dense"},
	"core.compress_delta_us":       {"vsec_per_s", "chat-dense"},
	"core.compress_reconstruct_us": {"vsec_per_s", "chat-dense"},
	"optimize.fitphi_us":           {"vsec_per_s", "chat-dense"},
	"optimize.solve_us":            {"vsec_per_s", "chat-dense"},
	"core.ensure_coreset_cold_us":  {"vsec_per_s", "chat-dense"},
	"core.ensure_coreset_warm_us":  {"vsec_per_s", "chat-dense"},
	"core.absorb_coreset_us":       {"vsec_per_s", "chat-dense"},
	"core.eval_subset_us":          {"vsec_per_s", "chat-dense"},
	"radio.simulate_transfer_us":   {"vsec_per_s", "chat-dense"},
	"world.step_us":                {"vsec_per_s", "drive-eval"},
	"bev.rasterize_us":             {"vsec_per_s", "drive-eval"},
	"world.collect_frame_us":       {"setup_s", scenarios},
	"spatial.rebuild_us":           {"vsec_per_s", "fleet-scan"},
	"spatial.pairs_us":             {"vsec_per_s", "fleet-scan"},
	"shard.scan_us":                {"vsec_per_s", "fleet-scan"},
	"sched.calendar_cycle_ns":      {"vsec_per_s", "fleet-scan"},
	"trace.window_advance_us":      {"vsec_per_s", "fleet-scan"},
	"trace.rowat_ns":               {"vsec_per_s", "fleet-scan"},
	"core.candidate_pairs_us":      {"vsec_per_s", "fleet-scan"},
}
