// Package modelstore persists trained models so a process restart (or
// a fleet scale-out) loads seconds of training from disk in
// milliseconds instead of re-paying it.
//
// It has three layers:
//
//   - Format: a versioned binary envelope — magic, format version,
//     model kind, dataset fingerprint, payload, CRC32 trailer — around
//     the per-model codecs living beside each model
//     (internal/ml/{tree,forest,xgb,knn}). Tree models (forest, xgb)
//     store their node tables (tree.Table) column by column, the same
//     form they serve from; the table decoder rejects any table a walk
//     could index out of or read a wrong-sized payload from. Floats
//     travel as IEEE-754 bits, so a loaded model predicts
//     bit-identically to the one that was saved. Damaged or
//     incompatible files, including those of an older format version,
//     are rejected with typed errors (ErrBadMagic, ErrVersionSkew,
//     ErrCorrupt, ErrTruncated, ErrUnknownKind) that callers treat as a
//     cache miss, never as data.
//
//   - Store: a content-addressed directory of model files written
//     atomically and durably (temp file, fsync, rename, directory
//     fsync; the repo's only sanctioned use of os.Rename — enforced by
//     the pathpolicy analyzer). Open sweeps temp files a crash left
//     behind. The address is
//     a hash of everything that determines the fitted model's bits
//     (KeySpec: use case, system, holdout, resolved hyperparameters,
//     dataset fingerprint), so a stale entry is structurally
//     impossible: if anything changed, the key changed and the old file
//     is simply never read again.
//
//   - Registry: an in-memory front for the store with LRU-bounded
//     residency, per-key singleflight (concurrent requests for the same
//     model share one load-or-fit), and atomic swap on Refresh. It
//     counts hits, disk hits, misses, evictions, and load/save errors
//     for the serving layer's gauges.
//
// The package sits below internal/core: it knows about ml.Regressor
// implementations but nothing about predictors, breakers, or HTTP.
package modelstore
