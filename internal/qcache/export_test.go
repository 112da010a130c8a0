package qcache

// CompareNormalise exposes compareNormalise to the external tests, which
// build their queries through symex (an importer of this package).
var CompareNormalise = compareNormalise
