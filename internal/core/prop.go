// Trial observability: the optional per-trial observer a campaign can
// attach to record how a strike propagates — cycles from corruption to
// the first tainted global store, detection latency, and (for SDC
// trials) a compact fingerprint of the diverged memory. The observer is
// defined here so internal/obs (the tracer implementation) can depend
// on core without a cycle; everything it records is a deterministic
// function of the trial, so traced campaign reports stay byte-identical
// at any worker count.

package core

import (
	"flame/internal/flame"
	"flame/internal/gpu"
)

// PropRecord is one trial's propagation/fingerprint record. All cycle
// fields derive from executed-instruction observations; -1 means "did
// not happen".
type PropRecord struct {
	// StrikeCycle is the first corruption cycle (== injector InjectedAt).
	StrikeCycle int64 `json:"strike_cycle"`
	// StoreCycle is the cycle of the first global store or atomic whose
	// address or data was tainted by a strike (-1: the corruption never
	// reached a store). Taint is a monotone per-warp over-approximation
	// seeded at the struck register, so this is the earliest store the
	// strike could possibly have corrupted.
	StoreCycle int64 `json:"store_cycle"`
	// Depth is StoreCycle - StrikeCycle (-1 when no store was reached):
	// the propagation distance the ROADMAP's SDC-anatomy item asks for.
	Depth int64 `json:"depth"`
	// DetectLatency is the cycle distance from the first corruption to
	// the first sensor detection (-1: undetected).
	DetectLatency int64 `json:"detect_latency"`
	// TaintedInsts counts executed instructions that consumed a tainted
	// operand before the first tainted store (propagation breadth).
	TaintedInsts int `json:"tainted_insts,omitempty"`

	// The remaining fields describe final-memory divergence and are set
	// only for SDC trials (zero / omitted otherwise).

	// DivergedWords / DivergedPages is the extent of the divergence
	// between the trial's final memory and the golden image.
	DivergedWords int `json:"diverged_words,omitempty"`
	DivergedPages int `json:"diverged_pages,omitempty"`
	// MagHist is the log2 error-magnitude histogram: bucket i counts
	// diverged words whose XOR against the golden value has bit length
	// i+1 (i.e. magnitude in [2^i, 2^(i+1))). Trailing zero buckets are
	// trimmed.
	MagHist []int `json:"mag_hist,omitempty"`
	// PageHist is the log2 histogram of diverged words per diverged
	// page: bucket i counts pages with word count in [2^i, 2^(i+1)).
	// Trailing zero buckets are trimmed.
	PageHist []int `json:"page_hist,omitempty"`
	// Fingerprint hashes the divergence set — FNV-1a over (word index,
	// XOR) pairs, hex-encoded — so campaigns can group SDC trials that
	// corrupted memory the same way.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// TrialObserver watches one trial from the inside. Implementations are
// reused across trials by a single worker (not concurrency-safe); the
// engine calls BeginTrial after arming the injector, combines
// TrialHooks into every launch of the trial, and calls EndTrial after
// classification with the trial's final global memory (nil when the
// device never came up). A nil observer costs nothing: the engine
// bypasses all three calls and the hook combination entirely. A trial
// starts from the golden cursor paused at its first arm cycle and sees
// no hook call before it (see cursor.go), so the hooks must hold no
// state until a strike fires — as the propagation tracer's do.
type TrialObserver interface {
	BeginTrial(g *Golden, inj *flame.Injector)
	TrialHooks() *gpu.Hooks
	EndTrial(tr *TrialResult, finalMem []uint32, g *Golden)
}
