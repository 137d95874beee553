package budget

// ceiling is one row of the table: the most a gate's reading may be,
// its unit, and why the ceiling sits where it does.
type ceiling struct {
	max  float64
	unit string
	why  string
}

// table holds every allocation and resident-size ceiling in the
// repository, keyed by the package that gates it and what it measures.
// Tightening a ceiling changes one line; loosening one changes its line
// and its reason.
//
// A 16-job serving op — one /v2/rank batch and the /v2/reward batch of
// its decisions — adds up from these rows, read un-raced (go1.24,
// linux/amd64, GOMAXPROCS 1 and 2):
//
//	per 16-job op                    hint path    bandit path
//	client + net/http, canned        73 + 71      73 + 71      client.rank_batch, client.reward_batch
//	in-memory server                  3 +  2       4 +  4      serve.rank.*, serve.reward.*
//	real server's net/http share        13         13–14       the real server less the two above
//	real server, end to end             162       165–166      serve.real_server.*
//
// The real server's share is what net/http's server does for a handler
// that reads its body and answers, beyond what it does for the canned
// handler. qobench's hint_hit reads 10.13 allocations per job, 162.1 per
// op: the real server accounts for 162, so the residual, the harness's
// own share, is under 0.2 per op (0.01 per job), inside the ledger's
// rounding.
var table = map[string]ceiling{
	// internal/api: the batch codec.
	"api.decoder.warm":              {0, "allocs per rank+reward decode", "a warm Decoder decodes string-free batches out of its arenas alone"},
	"api.decoded_strings.reused":    {1 << 20, "B live", "1,000 kept 8-byte strings from 64 KB bodies through a reused Decoder pin their strings, not the 64 MB of bodies"},
	"api.decoded_strings.unmarshal": {1 << 20, "B live", "the same through UnmarshalJSON's fresh Decoder"},

	// internal/api/client: the typed client and net/http against a canned handler.
	"client.rank_batch":          {75, "allocs per 16-job RankBatch", "the client's share plus both ends of net/http for one keep-alive loopback round trip, the canned handler reading its body as the real one does: 73, plus two"},
	"client.reward_batch":        {73, "allocs per 16-event RewardBatch", "the same for the reward batch: 71, plus two"},
	"client.cluster_over_client": {0, "allocs per op", "a one-node Cluster's rank plus reward op minus the Client's two calls, least of three each: the rotation and the leader cost nothing"},

	// internal/bandit: the learner.
	"bandit.rank":          {1, "allocs per decision", "Rank copies a decision into log-owned blocks: a block now and then, plus the index and log growing, over 2,000"},
	"bandit.rank.capped":   {0.5, "allocs per decision", "the same counted exactly over 100,000 span-8 decisions into a serving-capped log (reads 0.06)"},
	"bandit.rank_greedy":   {0, "allocs per decision", "RankGreedy keeps nothing"},
	"bandit.train":         {2, "allocs per Train of 256", "Train allocates its example list once its index slab is warm; least of three"},
	"bandit.checkpoint":    {40, "allocs per CheckpointTo", "100,000 non-zero weights cost the growing buffer only"},
	"bandit.replay":        {0.1, "allocs per record", "replay stores a rank record as Rank does and reads a reward batch in place (reads 0.05)"},
	"bandit.load_per_line": {0.01, "allocs per weight line", "Load parses each line in the scanner's buffer; splitting a string per line made two"},
	"bandit.log.open":      {725, "B per logged event", "an open event keeps its features in the log's blocks: 696.2 B a log keeping its callers' slices held, plus ≈ 28 B of index"},
	"bandit.log.trained":   {30, "B per logged event", "a trained event is its nil slot: the reading, 28.5, plus a margin"},
	"bandit.log.offline":   {8, "B per decision", "the uncapped offline learner keeps only its fixed scratch: the reading, 7.0, plus a margin"},
	"bandit.log.loaded":    {532, "B per loaded event", "a loaded event is stored as a replayed one, its chosen action only: the reading, 529.0, plus 3"},
	"bandit.fresh_service": {64 << 10, "B retained", "a fresh Service holds no weight vector (2 MiB at the default Dim) until something writes a weight"},

	// internal/core: the offline leg.
	"core.run_day":     {0.6, "allocs per job", "JobsForDay plus Production.RunDay over 40 templates, the day's instances built in one batch (one slab per kind and one string block for the day, where each instance's two string arenas were two allocations), every recurrence run in its instance's borrowed compilation, each instance one facts block with its graph header and first rewrite certificate inline, and kept rewrites living in the batch's store with the column lists and predicates they add, a few chunks for the day where those were 1.9 heap allocations per rewrite (2.47) and each copy four more (4.38–4.41): the reading (0.543–0.568 at GOMAXPROCS 1 and 2) + 5 %, rounded up"},
	"core.advisor_day": {7.8, "allocs per job", "Advisor.RunDay's first day with the GC off, so no collection empties the pools production warmed (a day-owned scratch measured +1.57 per job), every flight arm run in its borrowed compilation, the next-day instances the flights look ahead to built in one batch per flighting Run with one string block, compile failures formatted only when read, FitRidge's rows built in one buffer, the representative per template drawn from one sorted copy of the recommendations, and kept rewrites with the column lists and predicates they add living in their batch's store, the day's and each flighting Run's look-ahead batch's (8.63–8.68 with those on the heap; 12.63 with each copy four heap allocations): 7.37–7.42 at GOMAXPROCS 1 and 2 + 5 %, rounded up"},
	"core.offline_leg": {4.5, "MB retained", "generator, production and advisor after ten days of 40 templates, the live days' kept rewrites, with their column lists and predicates, in their batches' stores and their dated strings in their batches' string blocks, chunk and block slack included (4.07–4.08 MB as heap Clones, 4.10–4.11 MB with those lists, predicates and strings on the heap): 4.10–4.11 MB + 10 %"},

	// internal/exec: the simulator.
	"exec.run":         {0, "allocs per Run", "Run works in pooled scratch: a warmed Run allocates nothing on any ledger plan"},
	"exec.seeded_rand": {0, "allocs per seed and two draws", "a warm pool hands out a generator and Seed writes no memory it did not own"},

	// internal/flighting: the flighting service.
	"flighting.look_ahead": {0.4, "allocs per look-ahead instance built", "one Run over a day's requests on 40 templates, less the same Run on a generator holding exactly the next-day instances the Run looks ahead to, built in one batch of those templates (so both Runs' future arms keep their rewrites in stores of one size): the successful flights' next-day instances are built in one batch, whose slabs, one string block for every instance's dated strings, rewrite store header and template lists all 29 share (11 allocations): 0.379 + 5 %, rounded up; two string arenas per instance made it 2.31, and a flight that built its next occurrence alone would cost workload.instance's 11"},

	// internal/obs: the flight recorder.
	"obs.flight_unretained": {0, "allocs per request", "a request neither slow, errored nor sampled runs Begin, Stage and FinishRequest in a pooled span buffer"},

	// internal/optimizer: compilation.
	"optimizer.lowering.scheme":   {0, "allocs per plan's keyed schemes", "partScheme allocates nothing for a scheme a warm builder has interned; worst of 40 ledger plans"},
	"optimizer.lowering.publish":  {5, "allocs per publish", "the Result and Plan, the node, pointer and stage slabs and the stages' upstream IDs; worst of 40 ledger plans"},
	"optimizer.optimize.uncached": {17, "allocs per Optimize", "T001 rewritten and lowered with no memo: the reading (16, which no pass-through filter push or compile failure of T001's moves) + 5 %, rounded up"},
	"optimizer.optimize.warm":     {6, "allocs per Optimize", "T001 through its warm rewrite memo, lowering only: 5 + 5 %, rounded up"},
	"optimizer.optimize.rename":   {14, "allocs per Optimize", "PushFilterBelowJoin moving a conjunct on a renamed right column, uncached: 13 + 5 %, rounded up"},
	"optimizer.estimate":          {0, "allocs per Estimate", "an Estimate through a warm memo lowers, tunes, stages and costs in pooled scratch and publishes nothing"},
	"optimizer.use":               {0, "allocs per Use", "a Use through a warm memo lends its callback the plan in the pooled builder's scratch and publishes nothing"},

	// internal/par.
	"par.for.8":      {5, "allocs per For call", "n=8 at GOMAXPROCS 4: one pool plus a goroutine start per extra worker (4.0–4.3), + 1"},
	"par.for.4096":   {5, "allocs per For call", "the same at n=4,096, which cost 8,195 while every index had a goroutine of its own"},
	"par.for.growth": {0.995, "allocs per For call", "n=4,096 minus n=8, means over 200 calls (multiples of 0.005): under one, so a call allocates per call, not per item"},

	// internal/scope.
	"scope.template_hash_walk": {0, "allocs per walk", "the walk behind TemplateHash keeps its visit marks in a pool"},

	// internal/serve: the handlers, the hint table and the real server.
	"serve.rank.hinted":        {5, "allocs per 16-job request", "ServeHTTP in memory, every job hinted: request state, request ID, Content-Length digits; the reading plus two"},
	"serve.reward.template":    {4, "allocs per 16-event request", "ServeHTTP in memory, rewards by template hash: the reading plus two"},
	"serve.rank.bandit":        {6, "allocs per 16-job request", "16 unhinted jobs featurized, ranked, logged and journaled to an async WAL: the reading plus two"},
	"serve.reward.event_id":    {6, "allocs per 16-event request", "16 rewards by event ID journaled, queued, applied and trained: the reading plus two"},
	"serve.real_server.hinted": {164, "allocs per 16-job op", "serve.New behind httptest.Server, driven by the typed Client: rank plus reward on the hint path; the reading plus two"},
	"serve.real_server.bandit": {168, "allocs per 16-job op", "the same on the bandit path, each op rewarding the decisions it ranked: 165–166, plus two"},
	"serve.metrics_scrape":     {565, "allocs per scrape", "the maximal server's /metrics, ServeHTTP in memory: one Stats() snapshot and 82 families, 27 of them histograms, allocating per series (9,004 when each of 42 buckets per histogram copied its labels and formatted its bound); the reading, 555, plus ten"},
	"serve.hint_lookup.hit":    {0, "allocs per lookup", "a hit's hint ID is a substring of the table's arena"},
	"serve.hint_lookup.miss":   {0, "allocs per lookup", "a miss returns the zero hint"},
	"serve.hint_table":         {26, "B per hint", "262,144 hints, seven-byte IDs: 16 B of entry, 2 of bucket directory, 7 of arena"},
	"serve.hint_only_server":   {1<<20 - 1, "B retained", "a node serving 4,096 hints and no bandit write holds under half the 2 MiB weight vector it must not allocate"},

	// internal/strarena.
	"strarena.short_strings": {0, "allocs per two strings", "\"\" and one-byte strings are the runtime's static copies"},
	"strarena.block":         {1, "allocs per Reset and 16 strings", "strings that fit the block Reset asked for share its one allocation"},

	// internal/wal: the journal.
	"wal.append":      {0, "allocs per 200-byte record", "the record header lives in the WAL, not in a local that escapes through the buffered writer"},
	"wal.cursor_wake": {0, "allocs per record delivered", "a warm tail cursor keeps its segment open and copies the segment list into a slice it owns"},

	// internal/walrec: the journal's records.
	"walrec.encode_quarantine": {1, "allocs per EncodeQuarantine", "the record's own bytes and nothing else"},
	"walrec.decoded_strings":   {1 << 20, "B live", "3,000 kept 8-byte strings from 64 KB records pin their strings, not the 192 MB of payloads"},

	// internal/workload: job instances and view rows.
	"workload.view_rows":        {0, "allocs per pass", "AppendViewRows into a dst with room keeps its marks in a pool"},
	"workload.recurrence":       {0, "allocs per recurrence", "a recurrence is handed out from the instance's job slab"},
	"workload.instantiate_memo": {0, "allocs per Instantiate", "Instantiate of a memoized instance allocates nothing"},
	"workload.instance":         {12, "allocs per instance built", "a lone instance, which only an Instantiate miss outside a day's or a flighting Run's look-ahead batch builds, is a batch of one and keeps its allocations of its own, where a batch's instances share theirs: its dated-string arena, the bound graph's string arena and five slabs, the key and float slabs, the facts block (graph header, truth, statistics, empty memo) and the job slab, and no string block or rewrite store, its memo keeping heap Clones with heap column lists and predicates: 11 + 5 %, rounded up"},
	"workload.jobs_for_day":     {0.35, "allocs per instance built", "JobsForDay on a fresh date over 40 templates builds them in one batch through Prefetch: thirteen allocations shared by all 40 — the five bound-graph slabs, one string block holding every instance's dated strings and its bound graph's (sized from each template's bound, so it never doubles), the key, float, facts and job slabs, the rewrite store's header, the list of templates to build and the day's job list: 0.325 + 5 %, rounded up; each instance's two string arenas made it 2.3"},
	"workload.kept_rewrite":     {0.5, "allocs per kept rewrite", "the first compilation of each of a fresh date's 40 instances less the same compilations through their warm memos: the rewrites' own transient lists (PushFilterBelowJoin's conjunct lists, the rewriter's scratch regrowing), and the rewrites kept in the batch's store with the column lists and predicates they add, a few chunks of each kind for all 40: the reading, 0.475, + 5 %, rounded up; those lists and predicates as heap allocations made it 2.4, and a heap Clone per kept rewrite four more (6.3)"},
	"workload.bind":             {8, "allocs per cold Bind", "a lone Bind is a batch of one: the Graph header, its dated strings, and nodes, Inputs and Roots, schemas, expression spines and literals, one slab each: 7 + 5 %, rounded up"},
}
