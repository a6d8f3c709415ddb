(* Shared plumbing for the reproduction experiments. *)

let page = Sgx.Types.page_bytes

(* The paper experiments' Path ORAM tree seed; the perf cells use the
   builder's default. *)
let oram_seed = 1234L

let scheme_name (s : Harness.Builder.spec) =
  match s.policy with
  | Baseline -> "baseline"
  | Rate_limit -> "rate-limit"
  | Clusters -> Printf.sprintf "%d-page clusters" s.cluster_pages
  | Oram -> "ORAM"
