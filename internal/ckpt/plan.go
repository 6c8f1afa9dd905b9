package ckpt

import (
	"fmt"

	"stance/internal/ctl"
)

// Plan is the coordinator's recovery verdict: which ranks died, the
// surviving active set, and the layouts to move between. Every
// survivor executes it deterministically. The coordinator multicasts
// it on TagCtl after collecting heartbeats, in the control plane's
// format (internal/ctl), beside the alive and abort verdicts.
type Plan = ctl.Recovery

// EncodeAlive returns the all-alive verdict payload.
func EncodeAlive() []byte { return ctl.EncodeAlive() }

// EncodeAbort returns the unrecoverable verdict payload naming the
// dead ranks.
func EncodeAbort(dead []int) []byte { return ctl.EncodeAbort(dead) }

// EncodePlan returns the recovery verdict payload.
func EncodePlan(p *Plan) []byte { return ctl.EncodeRecovery(p) }

// DecodeVerdict decodes a TagCtl payload. It returns (nil, nil) for an
// all-alive verdict, a plan for a recovery verdict, and an error
// wrapping ErrUnrecoverable for an abort verdict or any malformed
// payload: a member that cannot read the coordinator's verdict has no
// consistent way to continue.
func DecodeVerdict(data []byte) (*Plan, error) {
	p, dead, err := ctl.DecodeGateVerdict(data)
	switch {
	case err != nil:
		return nil, fmt.Errorf("ckpt: malformed verdict: %v: %w", err, ErrUnrecoverable)
	case dead != nil:
		return nil, fmt.Errorf("ckpt: ranks %v died and their checkpoints are lost: %w", dead, ErrUnrecoverable)
	}
	return p, nil
}
