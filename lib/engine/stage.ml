type t =
  | Compile
  | Analysis
  | Struct_profile
  | Matching
  | Fingerprint
  | Interval_collection
  | Clustering
  | Summarize
  | Sampling
  | Validate

let name = function
  | Compile -> "compile"
  | Analysis -> "analysis"
  | Struct_profile -> "struct-profile"
  | Matching -> "matching"
  | Fingerprint -> "fingerprint"
  | Interval_collection -> "interval-collection"
  | Clustering -> "clustering"
  | Summarize -> "summarize"
  | Sampling -> "sampling"
  | Validate -> "validate"

let all =
  [ Compile; Analysis; Struct_profile; Matching; Fingerprint;
    Interval_collection; Clustering; Summarize; Sampling; Validate ]

let index = function
  | Compile -> 0
  | Analysis -> 1
  | Struct_profile -> 2
  | Matching -> 3
  | Fingerprint -> 4
  | Interval_collection -> 5
  | Clustering -> 6
  | Summarize -> 7
  | Sampling -> 8
  | Validate -> 9

let compare a b = Int.compare (index a) (index b)
