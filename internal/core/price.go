package core

import (
	"math/big"

	"github.com/defender-game/defender/internal/graph"
)

// Quality-of-protection metrics, in the spirit of the follow-up literature
// on the "price of defense": how much of the network the equilibrium
// actually protects, and how that compares with the best guarantee any
// defender strategy could extract against fully adversarial attackers.

// Escapes returns ν − IP_tp: the expected number of attackers that evade
// the defender each round at this equilibrium.
func (ne TupleEquilibrium) Escapes() *big.Rat {
	nu := new(big.Rat).SetInt64(int64(ne.Game.Attackers()))
	return nu.Sub(nu, ne.DefenderGain())
}

// ProtectionRatio returns IP_tp / ν ∈ [0, 1]: the fraction of the attack
// force arrested in expectation. For a k-matching equilibrium this equals
// k/|IS| — the paper's linear-in-k quality of protection.
func (ne TupleEquilibrium) ProtectionRatio() *big.Rat {
	return new(big.Rat).Quo(ne.DefenderGain(), new(big.Rat).SetInt64(int64(ne.Game.Attackers())))
}

// MaxminGuarantee computes the best expected catch count a defender can
// GUARANTEE in Π_k(G) against ν fully adversarial attackers: ν times the
// single-attacker minimax value (each attacker independently faces the
// defender's minimax coverage, and can independently cap it at the value).
// It inherits GameValue's enumeration limits (ErrValueTooLarge).
//
// On graphs admitting k-matching equilibria the equilibrium gain k·ν/|IS|
// attains this guarantee exactly — playing the equilibrium is maxmin-
// optimal for the defender — which the tests assert via the LP oracle.
func MaxminGuarantee(g *graph.Graph, attackers, k int) (*big.Rat, error) {
	value, _, _, err := GameValue(g, k)
	if err != nil {
		return nil, err
	}
	return value.Mul(value, new(big.Rat).SetInt64(int64(attackers))), nil
}
