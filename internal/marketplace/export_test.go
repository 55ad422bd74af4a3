package marketplace

// ReferenceSampleRange exposes the canonical-order oracle to the external
// identity tests.
var ReferenceSampleRange = referenceSampleRange
