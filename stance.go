// Package stance is a Go reproduction of the STANCE runtime library
// from "Runtime Support for Parallelization of Data-Parallel
// Applications on Adaptive and Nonuniform Computational Environments"
// (Kaddoura & Ranka, Syracuse University, 1995).
//
// STANCE parallelizes iterative, unstructured data-parallel
// applications — the canonical example is a sparse neighbor-averaging
// loop over an unstructured mesh — on clusters whose machines differ
// in speed (nonuniform) and whose delivered speeds change during the
// run (adaptive). The library is organized around the paper's four
// phases:
//
//   - Phase A, data partitioning: a locality-preserving transformation
//     maps the computational graph to a one-dimensional list, so
//     partitioning for any capability vector is just cutting the list
//     into contiguous intervals (see Orderings).
//   - Phase B, inspector: off-processor references are deduplicated
//     and turned into communication schedules with zero communication
//     by exploiting access symmetry (schedule_sort2; the paper's other
//     builders are reproduced by its Table 3 harness).
//   - Phase C, executor: Exchange and ScatterAdd replay the schedules
//     to move ghost data each iteration.
//   - Phase D, load balancing: measured per-item compute rates feed a
//     centralized controller that remaps data when the predicted gain
//     beats the redistribution cost, choosing the new arrangement with
//     the MinimizeCostRedistribution heuristic.
//
// The shortest path into the library is the session API: NewSession
// builds a world on a named transport, partitions the mesh and wires
// the solver and balancer on every rank; Session.Run drives the
// iterate → measure → balance-check → remap protocol and returns a
// consolidated RunReport. See examples/quickstart.
//
//	s, err := stance.NewSession(ctx, g, 4, stance.WithOrdering("rcb"))
//	report, err := s.Run(100)
//
// The session is the whole public tier: there is no constructor below
// NewSession. Session.Runtime, Session.Solver and Session.World hand
// out one rank's runtime and solver and the session's world for
// inspection. See examples/ for runnable programs and DESIGN.md for the
// full architecture.
package stance

import (
	"stance/internal/comm"
	"stance/internal/core"
	"stance/internal/graph"
	"stance/internal/hetero"
	"stance/internal/loadbal"
	"stance/internal/mesh"
	"stance/internal/order"
	"stance/internal/redist"
	"stance/internal/sched"
	"stance/internal/solver"
)

// Re-exported core types. The aliases expose the internal
// implementations as the public API surface.
type (
	// NetworkModel emulates a shared-medium network's latency and
	// bandwidth for in-process worlds.
	NetworkModel = comm.Model
	// Graph is an undirected computational graph in CSR form.
	Graph = graph.Graph
	// Edge is an undirected graph edge.
	Edge = graph.Edge
	// Runtime is one rank's view of the distributed computation;
	// Session.Runtime returns one.
	Runtime = core.Runtime
	// Env describes a simulated nonuniform/adaptive cluster.
	Env = hetero.Env
	// Load is a competing load on one workstation.
	Load = hetero.Load
	// Solver runs the paper's Figure 8 irregular loop; Session.Solver
	// returns one.
	Solver = solver.Solver
	// Timings are the solver's accumulated per-rank measurements.
	Timings = solver.Timings
	// Kernel is the solver's per-iteration compute body: one method,
	// UpdateRows, handed the plan's rows, which writes each listed
	// element's new value — divide included; the solver only moves the
	// values into the vector once every row is in. Rows arrive in the
	// plan's order — grouped by degree, not ascending — and are
	// independent.
	Kernel = solver.Kernel
	// Rows is what a Kernel sweeps: the listed rows, their degrees and
	// the list's chunk table, which holds every reference of every
	// listed row exactly once — the rank's only localized copy of its
	// adjacency. An eight-row chunk of one degree stores its references
	// interleaved, any other chunk one row after another, and each chunk
	// is marked with its form (see sched.Rows).
	Rows = sched.Rows
	// Figure8 is the paper's default kernel.
	Figure8 = solver.Figure8
	// ExecStats counts the executor data path's traffic, including the
	// Overlapped/Pipelined/Idle counters of executor depths >= 1.
	ExecStats = core.ExecStats
	// BalancerConfig parameterizes the balancer.
	BalancerConfig = loadbal.Config
	// Decision is the controller's load-balancing verdict, as a
	// CheckEvent records it.
	Decision = loadbal.Decision
	// CostModel prices redistributions for profitability decisions.
	CostModel = redist.CostModel
	// OrderFunc computes a locality-preserving permutation.
	OrderFunc = order.Func
	// Estimator predicts next-phase rates from measurement history.
	Estimator = loadbal.Estimator
	// EstimatorKind selects the rate-prediction policy.
	EstimatorKind = loadbal.EstimatorKind
)

// Rate-estimation policies (the paper's "predict from more than one
// previous phase" extension).
const (
	EstimateLast = loadbal.EstimateLast
	EstimateEWMA = loadbal.EstimateEWMA
	EstimateMax  = loadbal.EstimateMax
)

// NewEstimator creates a rate estimator for BalancerConfig.Estimator.
func NewEstimator(kind EstimatorKind, alpha float64) (*Estimator, error) {
	return loadbal.NewEstimator(kind, alpha)
}

// Ethernet models the paper's 10 Mbit shared Ethernet; scale < 1
// speeds it up proportionally.
func Ethernet(scale float64) *NetworkModel {
	return comm.Ethernet(scale)
}

// CheckEthernetScale returns an error for a scale Ethernet would panic
// on (anything but a finite positive number) — for scales read from a
// flag or a file.
func CheckEthernetScale(scale float64) error {
	return comm.CheckEthernetScale(scale)
}

// NewTopology builds a rank → node-group assignment for WithTopology.
// Group ids must be a contiguous range 0..G-1 with every group
// non-empty.
func NewTopology(groupOf []int) (*Topology, error) {
	return comm.NewTopology(groupOf)
}

// ContiguousGroups builds the even block topology: p ranks split into
// the given number of contiguous, near-equal node groups — what
// WithGroups constructs internally.
func ContiguousGroups(p, groups int) (*Topology, error) {
	return comm.ContiguousGroups(p, groups)
}

// UniformEnv returns p equally fast, unloaded workstations.
func UniformEnv(p int) *Env { return hetero.Uniform(p) }

// LoadedEnv returns p workstations with a constant competing load of
// the given factor on workstation 0 — the paper's Table 5 scenario.
func LoadedEnv(p int, factor float64) *Env { return hetero.PaperAdaptive(p, factor) }

// OrderByName returns a locality ordering by name: "identity",
// "random", "rcb", "rib", "morton", "hilbert", "rcm" or "spectral".
func OrderByName(name string) (OrderFunc, error) { return order.ByName(name) }

// Orderings lists the available ordering names.
func Orderings() []string { return order.Names() }

// RCB is recursive coordinate bisection, the ordering used throughout
// the paper's figures.
var RCB = order.RCB

// Mesh generators (package mesh): the paper's evaluation mesh is not
// available, so PaperMesh builds a honeycomb matched to its 30269
// vertices and ~45k edges.
var (
	PaperMesh       = mesh.Paper
	Honeycomb       = mesh.Honeycomb
	GridMesh        = mesh.GridTriangulated
	AnnulusMesh     = mesh.Annulus
	RandomGeometric = mesh.RandomGeometric
)

// GraphFromEdges builds a validated CSR graph from an edge list.
var GraphFromEdges = graph.FromEdges
