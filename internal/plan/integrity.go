package plan

import "fmt"

// DefaultVerifyBytesPerSec is the streaming rate charged by an OpVerify
// step: an ABFT checksum fold is a fused SIMD accumulate over
// already-resident data, so it runs near memory stream bandwidth rather
// than at the reduction rate (which pays for two operand streams and a
// writeback).
const DefaultVerifyBytesPerSec = 24e9

// IntegrityError reports a failed OpVerify step: an injected memory-
// corruption burst hit one of the rank's preceding reductions and the
// checksum fold caught it. Resilient runners treat it like a failed
// round (collective.IsIntegrity / pacc.IsIntegrity match it).
type IntegrityError struct {
	// Plan names the schedule that failed.
	Plan string
	// Rank is the communicator rank whose accumulator was corrupted.
	Rank int
	// Step is the index of the OpVerify step that detected it.
	Step int
}

func (e *IntegrityError) Error() string {
	return fmt.Sprintf("abft checksum mismatch (corrupted accumulator on rank %d of plan %q)",
		e.Rank, e.Plan)
}
