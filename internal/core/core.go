// Package core implements the paper's central artifact: executable rule
// objects compiled from CADEL commands.
//
// A rule object pairs a device action with a condition tree. Condition trees
// are evaluated against a Context — an instantaneous snapshot of every sensor
// reading, device state, user location, arrival event and broadcast programme
// the home server knows about. For conflict analysis the same trees are
// normalised to disjunctive normal form (ToDNF), whose terms the
// consistency check of Sect. 4.4 of the paper decides atom by atom
// (package conflict).
package core
