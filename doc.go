// Package repro is a reproduction of "A Flexible Scheme for Scheduling
// Fault-Tolerant Real-Time Tasks on Multiprocessors" (Cirinei, Bini,
// Lipari, Ferrari — IPPS 2007).
//
// The paper time-partitions a 4-core lock-step multicore into three
// periodically recurring operating modes — fault-tolerant (FT, all four
// cores in redundant lock-step), fail-silent (FS, two lock-step pairs)
// and non-fault-tolerant (NF, four independent cores) — and uses
// hierarchical scheduling theory to size the slot cycle so every
// sporadic task meets its deadline in its required mode.
//
// This package is the umbrella API. The pieces live in internal
// packages:
//
//   - internal/task, internal/timeu: task model and time arithmetic;
//   - internal/points, internal/analysis, internal/supply: scheduling
//     points, Theorems 1–2, minQ (Eqs. 6 and 11), supply functions
//     (Lemma 1 exact form, linear bound, periodic-resource comparison);
//   - internal/envelope: the incremental dominance-envelope index the
//     analysis layer is built on. Demand curves cross at most once, so
//     a pair is retained iff it is undominated at one of the two
//     extremes (P→0⁺ rank w/t, P→∞ rank w−t); envelope.Index keeps the
//     point stream sorted under packed order-preserving float keys and
//     maintains that Pareto order under point insertion and removal —
//     each event re-examines only the touched points and the envelope
//     span they dominate or release, not the whole stream — with
//     owner counts so tasks sharing a deadline merge and unmerge
//     exactly. Pruning never decides MinQ (the 1e-9 relative margin
//     keeps every near-tie), so every layer above stays bit-identical
//     to the from-scratch oracle (envelope.Prune), which
//     envelope.Check re-verifies in full wherever the chaos harness
//     reaches a quiescent point;
//   - internal/core: the paper's integration conditions (Eqs. 12–15);
//     Problem.Compile caches per-channel demand profiles
//     (analysis.Profile) — the P-independent half of Eq. (15) — so
//     repeated LHS evaluations run allocation-free; every search below
//     uses this compiled path, with the naive methods kept as the
//     reference oracle. Profiles update incrementally: WithTask and
//     WithoutTask (on both analysis.Profile and core.CompiledProblem)
//     patch one task's deadline stream in or out through a cloned
//     envelope.Index snapshot (what-if clones share the immutable
//     parent index), staying bit-identical to a fresh compile, so
//     "what if this task joined channel i" costs the newcomer's own
//     deadlines plus the affected envelope span rather than a channel
//     recompilation; the batched WithTasks/WithoutTasks patch a whole
//     group with one stream merge and one index update, and a
//     hyperperiod change falls back to a full recompile (counted by
//     Profile.Fallbacks and reported as a trace event);
//   - internal/region, internal/design: Figure 4 exploration and the
//     two design goals of Table 2;
//   - internal/partition, internal/workload: automatic channel
//     assignment and synthetic workload generation;
//   - internal/online: the run-time admission controller of the paper's
//     second design goal, built on the incremental profiles so each
//     admit or release costs the change, not the channel. The manager
//     is batched (AdmitBatch/RemoveBatch: all-or-nothing groups, one
//     reshape and one configuration swap per batch), sharded
//     (per-channel locks, so disjoint channels reconfigure
//     concurrently) and read-optimised (Config/Slack/Tasks are served
//     lock-free from atomically swapped snapshots), with a
//     consolidation policy bounding long-run memory under churn
//     (ratio-triggered by default: Profile.MemStats reports the
//     retained/live cell ratio and SetConsolidateRatio rebuilds a
//     channel when pinned ancestor rows outweigh the live ones;
//     SetConsolidateEvery remains as the legacy patch-count shim). It is
//     also overload-resilient: AdmitBatchPartial sheds the
//     lowest-value members of an overflowing batch under a Policy
//     (greedy-maximal, one profile patch per shed), Revoke/Restore
//     model capacity loss and recovery (evict lowest-value tasks, park
//     them, readmit by value), and every failure is a typed *Rejection
//     (per-task verdicts, offending slot overflows, ErrRejected/ErrBusy
//     sentinels with a Backoff retry helper);
//   - internal/chaos: a seeded concurrency harness storming the manager
//     — admissions, partial admissions, removals, fault-driven
//     revocations — and checking conservation, Verify, bit-identity to
//     a from-scratch solve and the full envelope audit
//     (Manager.CheckProfiles) at every quiescent point, while tallying
//     envelope fallbacks and consolidation rebuilds (ftsim -chaos);
//     RunClosedLoop then closes the analysis → execution loop: it
//     replays a seeded workload storm through the scenario runtime
//     under fault injection and asserts the headline invariant
//     (ftsim -scenario);
//   - internal/platform, internal/faults, internal/sim,
//     internal/recovery, internal/trace: the executable platform model
//     with fault injection and recovery policies. internal/sim is a
//     scenario runtime as well as a one-shot simulator: Replay applies
//     a timeline of workload events (Admit, AdmitPartial, Remove,
//     Revoke, Restore at simulated instants) to a live online.Manager
//     and executes the epochs the accepted changes induce — each
//     configuration swap takes effect at the next slot-cycle boundary
//     (mode-switch-safe, Figure 2), in-flight jobs carry across each
//     reshape, and per-task statistics are kept per residency (one
//     admission-to-departure tenure). The invariant it checks is the
//     executable analogue of the admission guarantee: every task the
//     manager admits meets every deadline released during its
//     residency. Reshapes that shrink or shift a channel's windows
//     displace under one slot-cycle period of backlog; since
//     minimal-slot configurations have zero scheduling margin that
//     backlog persists, and jobs late within one period per such
//     reshape are classified TransitionLate — the bounded mode-change
//     latency — apart from genuine misses;
//   - internal/metrics: a dependency-free, zero-allocation metrics
//     layer (atomic counters, float-bit gauges, power-of-two-bucket
//     histograms) with immutable Snapshot reads, an expvar bridge and
//     an HTTP JSON handler;
//   - internal/report: table and CSV rendering.
//
// # Observability
//
// Trace events say what happened; metrics say how much and how fast.
// The manager (online.NewMetrics + Manager.SetMetrics), the scenario
// runtime (sim.NewMetrics via ScenarioOptions.Metrics) and the chaos
// harness register their instruments in one metrics.Registry:
// reconfiguration outcomes, per-task admit/remove/shed/evict tallies,
// envelope patches versus fallbacks versus rebuilds, patch and commit
// latency histograms, live-state gauges, replay throughput. The write
// side is a single atomic op per instrument, so the instrumented
// admit+remove cycle keeps its zero-allocation contract (the manager
// benchmark runs metered, and benchgate holds it at 0 allocs/op);
// reads are immutable snapshots, exact at quiescent points — which is
// how the chaos harness uses them, cross-checking every counter
// against its own tallies after each storm round. cmd/ftsim
// -metricsaddr serves the registry over HTTP (/metrics JSON,
// /debug/vars expvar) during -chaos and -scenario runs and both modes
// print the final snapshot.
//
// # Memory model of the hot path
//
// The admission and replay loops are allocation-light by construction,
// and the ownership rules are load-bearing:
//
//   - Shared, immutable: compiled profiles and their envelope.Index
//     snapshots. What-if clones (WithTask/WithTasks and friends) share
//     untouched columnar slabs copy-on-write; a shared row or slab is
//     never written in place, so an ancestor snapshot and its patched
//     descendants can be read concurrently forever.
//   - Exclusive, single-owner: Profile.Thawed and
//     CompiledProblem.CompileMutable produce profiles whose
//     AddTasks/DropTasks patch rows in place inside a private arena,
//     making a steady-state admit+remove cycle allocation-free. A
//     change that moves the hyperperiod recompiles the profile in place
//     through the same compile kernel Compile runs, into the profile's
//     own arena and envelope index, so once they hold the larger
//     horizon it allocates nothing either. An exclusive profile keeps
//     its envelope index lazy: patches sort no rank keys, and MinQ at
//     the manager's fixed period is one scan of the demand row (Eq. 11
//     as written), bit-identical to the pruned scan; the envelope is
//     built only when something reads it (Pairs, Check, Equal, an
//     immutable what-if). The online manager thaws each touched
//     channel's profile on first patch; consolidation rebuilds into
//     exactly sized buffers so the memory-ratio trigger, which counts
//     every buffer a profile keeps against its live state (a lazy
//     index's live state has no keys or envelope), converges.
//   - Scratch, per-owner, reused: the manager's touched-channel slice;
//     the sim engine's epoch buffers (service windows, fault and
//     corruption overlays), its job records (recycled through a
//     freelist at each job's terminal event) and its concrete,
//     non-boxing heaps. Scratch results are valid until the owner's
//     next cycle or epoch, never across it, and never escape to
//     readers.
//
// The bit-identity contract constrains all of it: every incremental or
// in-place path must produce float-for-float the result of the
// from-scratch oracle (envelope.Prune, a fresh Compile, the sim
// engine's linear-scan release path), so buffers may be reused but
// operation order and floating-point accumulation order may not
// change. CI enforces the performance side with cmd/benchgate: the
// headline benchmarks run against the checked-in BENCH_baseline.json,
// and a >20% regression in allocs/op, or in ns/op taken as a ratio to
// the in-run calibration benchmark (BenchmarkCalibrate), fails the
// build on any host.
//
// A typical session: build a Problem, explore the feasible periods,
// solve for a design goal, and validate the result in simulation:
//
//	pr, _ := repro.NewProblem(repro.PaperTaskSet(), repro.EDF, 0.05)
//	sol, _ := repro.Design(pr, repro.MinOverheadBandwidth)
//	res, _ := repro.Simulate(sol.Config, pr.Tasks, pr.Alg, repro.SimOptions{})
//	fmt.Print(res.Summary())
package repro
