// Package repro is a from-scratch Go reproduction of
//
//	Y. Richard Wang and Stuart E. Madnick,
//	"A Polygen Model for Heterogeneous Database Systems:
//	 The Source Tagging Perspective", 1990.
//
// README.md has the tour and quickstart; docs/ARCHITECTURE.md maps the
// layers onto the paper's figures, describes the execution engine and the
// oracle it is held to, and documents the cost-based federated optimizer
// and the rewrites the polygen tag calculus does and does not license.
// EXPERIMENTS.md § Paper fidelity lists the paper's 18 tables, which
// cmd/paper-tables regenerates and diffs, with the corrections made to the
// printed values; its second half is the benchmark method. The
// implementation lives under internal/, the runnable entry points under
// cmd/ and examples/, and the end-to-end benchmark (bench/, run with
// bench/run.sh) in a nested module of its own.
//
// One engine evaluates polygen queries (pqp.Execute): plans run as trees
// of batch cursors, bounding peak memory and overlapping remote LQP
// retrieval with PQP-side operator work; pqp.ExecuteAll runs the same
// compiler with every intermediate register retained. The string-keyed
// reference operators (core.Ref*), on no query path, are the oracle the
// property suites in internal/core and internal/pqp hold it to, cell for
// cell (data and both tag sets).
//
// Plans are rewritten before execution by the cost-based federated
// optimizer (translate.OptimizeWithOptions): selections and projections
// push down into LQPs as fused subplans, retrievals narrow to the columns
// the answer can observe (column demand reaches through joins, products
// and merges), and join chains reorder under per-LQP statistics
// (internal/stats) — every rewrite proven identity-preserving, tags
// included, by the property suite in internal/pqp.
package repro
