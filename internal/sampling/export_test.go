package sampling

// PrefixKeys exposes prefixKeys to the external identity tests.
var PrefixKeys = prefixKeys
