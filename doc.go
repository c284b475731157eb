// Package repro is a from-scratch Go reproduction of Feng & Yin,
// "On Local Distributed Sampling and Counting" (PODC 2018,
// arXiv:1802.06686).
//
// The library lives under internal/: the LOCAL and SLOCAL model simulators,
// network decompositions, Gibbs distributions and concrete models, the
// correlation-decay inference oracles, and the paper's reductions (the
// sampling/inference equivalence, the boosting lemma, the distributed JVV
// exact sampler, and the strong-spatial-mixing characterization). The
// performance substrate — the compact state lattice, the compiled
// factor-table engine with its fused sweep-plan batch kernel plus the
// per-vertex conditional-CDF cache layered on the plans, and the
// batched multi-chain sampler it drives — is documented in README.md,
// as is the adaptive run controller (internal/run) that drives any
// batched dynamic to R̂/ESS convergence targets with acceptance-rate
// escalation between dynamics.
// Instances are declared through the versioned JSON schema of
// internal/spec (loader, encoder, and the curated corpus under
// testdata/corpus/), which every entry point compiles through one
// codepath. The runnable entry points are the commands under cmd/ and the
// examples under examples/; the experiment suite that reproduces every
// claim of the paper is internal/experiment, benchmarked from
// bench_test.go in this directory.
//
// See README.md for the complete map.
package repro
