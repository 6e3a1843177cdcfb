// Sharing-discipline annotations for cross-core state, enforced by tcprx_check.
//
// The macros expand to nothing: they exist so mutable state that is visible to
// more than one simulated core documents, at the declaration site, who may touch
// it and under what protection. tcprx_check's smp-share rule requires one of
// these on every mutable namespace-scope/static variable in src/smp and on every
// mutable data member of the classes listed in smp_shared_classes of the analyzer's
// compiled-in config (src/analysis/config.cc).
//
//   TCPRX_GUARDED_BY(x)  -- mutated by multiple cores; protected by x (a lock
//                           member, or a short phrase such as "steering table
//                           rebuilt only at quiescence").
//   TCPRX_SHARED         -- read-shared or single-writer state that needs no
//                           lock; the comment on the declaration should say why.

#ifndef SRC_UTIL_ANNOTATIONS_H_
#define SRC_UTIL_ANNOTATIONS_H_

#define TCPRX_GUARDED_BY(x)
#define TCPRX_SHARED

#endif  // SRC_UTIL_ANNOTATIONS_H_
