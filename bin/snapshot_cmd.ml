(* autarky_sim snapshot — sealed checkpoint/resume for long-horizon runs.

     snapshot run     build a world, drive it (optionally pausing into or
                      dropping periodic sealed images), print its outcome line
     snapshot resume  restore sealed images and drive them to completion
     snapshot replay  restore an inject image with a JSONL trace attached
                      and reclassify the continuation
     snapshot info    print an image's plaintext header

   Three world kinds exist, one per long-horizon driver in the tree:
   [longrun] (a perf-matrix cell shape, lib/snapshot/longrun.ml),
   [serve] (the multi-tenant fleet, stepped through Serve.Engine), and
   [inject] (one fault-injection campaign cell, stepped through
   Inject.Campaign).  The serve and inject glue lives here rather than
   in lib/snapshot so the snapshot library stays below both of them in
   the dependency order.

   The determinism contract every gate diffs: the outcome line of
   run-to-completion equals the outcome line of run-to-N + resume +
   run-to-completion, byte for byte — same trace digest (the digest
   sink's FNV accumulator rides the image), same counters, same
   cycles. *)

open Cmdliner
module World = Snapshot.World
module Image = Snapshot.Image
module Longrun = Snapshot.Longrun

let sanitize s = String.map (function '/' -> '_' | c -> c) s

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let store_of ~dir = Image.Store.file (Filename.concat dir "counters.tsv")

let fail fmt = Printf.ksprintf failwith fmt

(* Typed snapshot failures surface as one-line errors and exit 1, not
   as an uncaught-exception dump. *)
let reporting f =
  try f () with
  | Failure msg ->
    Printf.eprintf "error      : %s\n" msg;
    exit 1
  | Parallel.Pool.Task_error errs ->
    List.iter
      (fun (e : Parallel.Pool.error) ->
        Printf.eprintf "error      : %s\n"
          (match e.Parallel.Pool.exn with
          | Failure msg -> msg
          | exn -> Printexc.to_string exn))
      errs;
    exit 1

(* --- the serve world ---------------------------------------------------- *)

(* The fleet engine state plus the identity needed to print a
   comparable outcome line.  [sv_events] is the resume cursor: events
   processed so far (the quiescent points are between events). *)
type serve_world = {
  sv_seed : int;
  sv_quick : bool;
  sv_no_arbiter : bool;
  mutable sv_events : int;
  sv_state : Serve.Engine.state;
}

let serve_kind = "serve"

let serve_label w =
  Printf.sprintf "serve/default/%s/seed%d"
    (if w.sv_quick then "quick" else "full")
    w.sv_seed

let serve_build ~seed ~quick ~no_arbiter =
  let configs = Serve.Driver.default_scenario ~quick in
  let params =
    let p = Serve.Engine.default_params ~seed in
    {
      p with
      Serve.Engine.p_trace = true;
      p_arbiter = (if no_arbiter then None else p.Serve.Engine.p_arbiter);
    }
  in
  {
    sv_seed = seed;
    sv_quick = quick;
    sv_no_arbiter = no_arbiter;
    sv_events = 0;
    sv_state = Serve.Engine.start ~params configs;
  }

let serve_machine w = Serve.Engine.machine_of w.sv_state

let serve_finish_line w =
  let r = Serve.Engine.finish w.sv_state in
  Printf.sprintf "serve seed %d %s events %d end_cycle %d moves %d digest %s counters %s"
    w.sv_seed
    (if w.sv_quick then "quick" else "full")
    w.sv_events r.Serve.Engine.r_end_cycle r.Serve.Engine.r_arbiter_moves
    (Option.value r.Serve.Engine.r_digest ~default:"-")
    (World.counters_fingerprint
       (Sgx.Machine.counters r.Serve.Engine.r_machine))

let serve_path ~dir w = Filename.concat dir (sanitize (serve_label w) ^ ".snap")

(* Drive a (possibly restored) serve world; pause into a sealed image
   once [stop_at] events have been processed (when events remain). *)
let serve_advance ?stop_at ~store ~dir w =
  let stop = Option.value stop_at ~default:max_int in
  let rec go () =
    if w.sv_events >= stop then begin
      let path = serve_path ~dir w in
      ignore
        (World.save ~store ~kind:serve_kind ~label:(serve_label w)
           ~machine:(serve_machine w) w ~path);
      Error path
    end
    else if Serve.Engine.step w.sv_state then begin
      w.sv_events <- w.sv_events + 1;
      go ()
    end
    else Ok (serve_finish_line w)
  in
  go ()

(* --- the inject world --------------------------------------------------- *)

let inject_kind = "inject"

let inject_label c =
  Printf.sprintf "inject/%s/%s/seed%d/ops%d"
    (Inject.Campaign.policy_name (Inject.Campaign.cell_policy c))
    (match Inject.Campaign.cell_scenario c with
    | Some sc -> Inject.Fault.name sc
    | None -> "golden")
    (Inject.Campaign.cell_seed c)
    (Inject.Campaign.cell_ops c)

let inject_path ~dir c = Filename.concat dir (sanitize (inject_label c) ^ ".snap")

let raw_to_string = function
  | `Completed -> "completed"
  | `Terminated reason -> Printf.sprintf "terminated(%s)" reason
  | `Hang -> "hang"
  | `Crash msg -> Printf.sprintf "crash(%s)" msg

let inject_line c (e : Inject.Campaign.exec) =
  Printf.sprintf
    "inject %s %s seed %d ops %d/%d raw %s output %016Lx mismatch %b degraded %b injected %d cycles %d digest %s"
    (Inject.Campaign.policy_name (Inject.Campaign.cell_policy c))
    (match Inject.Campaign.cell_scenario c with
    | Some sc -> Inject.Fault.name sc
    | None -> "golden")
    (Inject.Campaign.cell_seed c)
    (Inject.Campaign.cell_done c)
    (Inject.Campaign.cell_ops c)
    (raw_to_string e.Inject.Campaign.e_raw)
    e.Inject.Campaign.e_output e.Inject.Campaign.e_mismatch
    e.Inject.Campaign.e_degraded e.Inject.Campaign.e_injected
    e.Inject.Campaign.e_cycles e.Inject.Campaign.e_digest

let inject_save ~store ~dir c =
  let path = inject_path ~dir c in
  ignore
    (World.save ~store ~kind:inject_kind ~label:(inject_label c)
       ~machine:(Inject.Campaign.cell_machine c) c ~path);
  path

(* Hooks for [autarky_sim inject --snapshot-dir]: before every
   operation keep a rolling in-memory capture of the cell (Marshal
   only, no sealing — the campaign runs thousands of operations); when
   a run resolves into a Detected verdict, seal the capture, which is
   the system just before the fatal operation.  Cells may run on pool
   domains, so the rolling table is mutex-guarded; each cell is driven
   by one domain, so its slot is never contended with itself. *)
let detected_hooks ~dir =
  ensure_dir dir;
  let store = store_of ~dir in
  let pending : (string, bytes) Hashtbl.t = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let with_lock f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let checkpoint c =
    let payload = World.to_payload c in
    with_lock (fun () -> Hashtbl.replace pending (inject_label c) payload)
  in
  let on_detected c ~reason:_ =
    let label = inject_label c in
    match with_lock (fun () -> Hashtbl.find_opt pending label) with
    | None -> ()
    | Some payload ->
      let path = Filename.concat dir (sanitize label ^ ".snap") in
      ignore
        (Image.save ~store ~kind:inject_kind ~label ~cycle:0L payload ~path)
  in
  (Some checkpoint, Some on_detected)

(* Drive a (possibly restored) cell.  [stop_at] pauses it into a sealed
   image (unless the run resolves first — e.g. a Detected verdict
   before the stop point — in which case the outcome line is printed as
   usual); [snapshot_every] seals en passant and keeps going. *)
let inject_advance ?stop_at ?snapshot_every ~store ~dir c =
  let paused_path = ref None in
  let checkpoint c =
    let n = Inject.Campaign.cell_done c in
    (match snapshot_every with
    | Some k when k > 0 && n > 0 && n mod k = 0 ->
      ignore (inject_save ~store ~dir c)
    | _ -> ());
    match stop_at with
    | Some stop when n >= stop ->
      paused_path := Some (inject_save ~store ~dir c);
      raise Inject.Campaign.Paused
    | _ -> ()
  in
  match Inject.Campaign.cell_drive ~checkpoint c with
  | e -> Ok (inject_line c e)
  | exception Inject.Campaign.Paused -> Error (Option.get !paused_path)

(* --- shared arguments --------------------------------------------------- *)

let dir_arg =
  let doc = "Directory for sealed images and the freshness counter store." in
  Arg.(value & opt string "_snapshots" & info [ "d"; "dir" ] ~doc ~docv:"DIR")

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains sharding independent longrun cells.  Changes \
     wall-clock only: outcome lines are identical at any job count."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")

(* --- snapshot run -------------------------------------------------------- *)

let run_cmd =
  let doc =
    "Build a world and drive it.  Without $(b,--stop-at) the world runs \
     to completion and prints its outcome line (the straight-through \
     reference of the resume-equivalence check); with $(b,--stop-at) it \
     pauses at that operation/event into a sealed image for \
     $(b,snapshot resume).  $(b,--snapshot-every) additionally seals \
     periodic images without pausing."
  in
  let kind_arg =
    let doc = "World kind: longrun, serve, or inject." in
    Arg.(value & opt string "longrun" & info [ "k"; "kind" ] ~doc)
  in
  let cells_arg =
    let doc =
      "Comma-separated longrun cells, each workload:policy:mech, named as \
       $(b,autarky_sim run) names them (e.g. uthash:clusters:sgx2).  A bad \
       cell is a usage error before anything is built."
    in
    let cell =
      let parse s =
        Option.to_result (Longrun.cell_of_string s)
          ~none:(`Msg (Printf.sprintf "bad cell %S (want workload:policy:mech)" s))
      in
      Arg.conv (parse, fun ppf c -> Format.pp_print_string ppf (Longrun.cell_to_string c))
    in
    Arg.(
      value
      & opt (list cell) [ (Harness.Builder.Ycsb, Harness.Builder.Rate_limit, `Sgx1) ]
      & info [ "cells" ] ~doc)
  in
  let ops_arg =
    let doc = "Operation horizon (longrun and inject)." in
    Arg.(value & opt int 400 & info [ "n"; "ops" ] ~doc)
  in
  let stop_arg =
    let doc = "Pause the world into a sealed image at this operation/event." in
    Arg.(value & opt (some int) None & info [ "stop-at" ] ~doc ~docv:"N")
  in
  let every_arg =
    let doc = "Also seal an image every $(docv) operations (no pause)." in
    Arg.(value & opt (some int) None & info [ "snapshot-every" ] ~doc ~docv:"K")
  in
  let quick_arg =
    let doc = "Serve kind: quick (quarter-length) scenario." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let no_arbiter_arg =
    let doc = "Serve kind: disable the EPC arbiter." in
    Arg.(value & flag & info [ "no-arbiter" ] ~doc)
  in
  let policy_arg =
    let doc = "Inject kind: policy (rate-limit, clusters, oram)." in
    Arg.(value & opt string "rate-limit" & info [ "policy" ] ~doc)
  in
  let scenario_arg =
    let doc =
      "Inject kind: fault scenario (bit-flip, replay, drop-blob, \
       epc-burst, limit-shrink, balloon-storm, reentry); omit for the \
       uninjected golden configuration."
    in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~doc)
  in
  let run kind cells ops seed stop_at every quick no_arbiter policy scenario dir
      jobs =
    reporting @@ fun () ->
    ensure_dir dir;
    let store = store_of ~dir in
    let print_result = function
      | Ok line -> print_endline line
      | Error path -> Printf.printf "paused     : %s\n" path
    in
    match kind with
    | "longrun" ->
      let specs =
        List.map
          (fun (w, p, m) ->
            { Longrun.sp_workload = w; sp_policy = p; sp_mech = m; sp_seed = seed;
              sp_ops = ops })
          cells
      in
      Parallel.Pool.map ~jobs
        (fun spec ->
          Longrun.advance ?stop_at ?snapshot_every:every ~store ~dir
            (Longrun.build spec)
          |> Result.map Longrun.outcome_line)
        specs
      |> List.iter print_result
    | "serve" ->
      serve_advance ?stop_at ~store ~dir
        (serve_build ~seed ~quick ~no_arbiter)
      |> print_result
    | "inject" ->
      let policy =
        match Inject.Campaign.policy_of_name policy with
        | Some p -> p
        | None -> fail "unknown policy %S" policy
      in
      let scenario =
        match scenario with
        | None -> None
        | Some s -> (
          match Inject.Fault.of_name s with
          | Some sc -> Some sc
          | None -> fail "unknown scenario %S" s)
      in
      inject_advance ?stop_at ?snapshot_every:every ~store ~dir
        (Inject.Campaign.cell_build ~policy ~seed ~ops ~scenario
           ~cycle_cap:max_int)
      |> print_result
    | other -> fail "unknown kind %S (want longrun, serve or inject)" other
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ kind_arg $ cells_arg $ ops_arg $ seed_arg $ stop_arg
      $ every_arg $ quick_arg $ no_arbiter_arg $ policy_arg $ scenario_arg
      $ dir_arg $ jobs_arg)

(* --- snapshot resume ----------------------------------------------------- *)

let files_arg =
  let doc = "Sealed snapshot images." in
  Arg.(non_empty & pos_all string [] & info [] ~doc ~docv:"IMAGE")

let load_failed path e =
  fail "%s: %s" path (Image.error_to_string e)

(* Restore one image (dispatching on its header's kind) and drive it to
   completion, returning its outcome line. *)
let resume_one ~store ~dir path =
  let h =
    match Image.read_header ~path with
    | Ok h -> h
    | Error e -> load_failed path e
  in
  match h.Image.h_kind with
  | "longrun" -> (
    match Longrun.resume ~store ~path () with
    | Error e -> load_failed path e
    | Ok w -> (
      match Longrun.advance ~store ~dir w with
      | Ok o -> Longrun.outcome_line o
      | Error p -> Printf.sprintf "paused     : %s" p))
  | "serve" -> (
    match World.load ~store ~kind:serve_kind ~machine_of:serve_machine ~path ()
    with
    | Error e -> load_failed path e
    | Ok (_h, w) -> (
      match serve_advance ~store ~dir w with
      | Ok line -> line
      | Error p -> Printf.sprintf "paused     : %s" p))
  | "inject" -> (
    match
      World.load ~store ~kind:inject_kind
        ~machine_of:Inject.Campaign.cell_machine ~path ()
    with
    | Error e -> load_failed path e
    | Ok (_h, c) -> (
      match inject_advance ~store ~dir c with
      | Ok line -> line
      | Error p -> Printf.sprintf "paused     : %s" p))
  | other -> fail "%s: unknown image kind %S" path other

let resume_cmd =
  let doc =
    "Restore sealed images (kind read from each header) and drive each \
     world to completion, printing the same outcome line a \
     straight-through $(b,snapshot run) prints.  Every load is fully \
     verified: chunk MACs, sealed-vs-plaintext header, producing-binary \
     digest, freshness counter, machine probe."
  in
  let run files dir jobs =
    reporting @@ fun () ->
    ensure_dir dir;
    let store = store_of ~dir in
    Parallel.Pool.map ~jobs (fun path -> resume_one ~store ~dir path) files
    |> List.iter print_endline
  in
  Cmd.v (Cmd.info "resume" ~doc) Term.(const run $ files_arg $ dir_arg $ jobs_arg)

(* --- snapshot replay ----------------------------------------------------- *)

let replay_cmd =
  let doc =
    "Restore an inject-campaign image — typically one auto-captured just \
     before a Detected verdict ($(b,autarky_sim inject --snapshot-dir)) — \
     with a JSONL trace sink attached, drive the remaining operations, \
     and reclassify the continuation against a fresh uninjected golden \
     run.  This is replay-with-tracing: the traced tail is exactly the \
     operations after the capture point (for a pre-Detected image, the \
     fatal operation itself)."
  in
  let from_arg =
    let doc = "The inject image to replay." in
    Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"IMAGE")
  in
  let out_arg =
    let doc = "Write the continuation trace as JSON Lines to $(docv) ('-' = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "out" ] ~doc ~docv:"FILE")
  in
  let run path out dir =
    reporting @@ fun () ->
    ensure_dir dir;
    let store = store_of ~dir in
    match
      World.load ~store ~kind:inject_kind
        ~machine_of:Inject.Campaign.cell_machine ~path ()
    with
    | Error e -> load_failed path e
    | Ok (_h, c) ->
      let oc, close_oc =
        match out with
        | "-" -> (stdout, fun () -> ())
        | file ->
          let ch = open_out file in
          (ch, fun () -> close_out ch)
      in
      (* Sinks hold channels, so the JSONL dump attaches only now —
         after the restore, never before a capture. *)
      Inject.Campaign.cell_add_sink c (Trace.Sink.jsonl_channel oc);
      let summary_oc = if out = "-" then stderr else stdout in
      let e = Inject.Campaign.cell_drive c in
      close_oc ();
      let golden =
        Inject.Campaign.exec_run
          ~policy:(Inject.Campaign.cell_policy c)
          ~seed:(Inject.Campaign.cell_seed c)
          ~ops:(Inject.Campaign.cell_ops c)
          ~scenario:None ~cycle_cap:max_int
      in
      Printf.fprintf summary_oc "%s\n" (inject_line c e);
      Printf.fprintf summary_oc "verdict    : %s\n"
        (Format.asprintf "%a" Inject.Fault.pp_outcome
           (Inject.Campaign.classify ~golden e))
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ from_arg $ out_arg $ dir_arg)

(* --- snapshot info -------------------------------------------------------- *)

let info_cmd =
  let doc =
    "Print an image's plaintext header.  No unsealing or freshness check \
     is performed: every field shown is attacker-writable until \
     $(b,snapshot resume) verifies it against the sealed copy."
  in
  let run files =
    reporting @@ fun () ->
    List.iter
      (fun path ->
        match Image.read_header ~path with
        | Error e -> load_failed path e
        | Ok h ->
          Printf.printf
            "%s: kind %s label %s counter %Ld cycle %Ld probe %016Lx binary %s payload %d B\n"
            path h.Image.h_kind h.Image.h_label h.Image.h_counter
            h.Image.h_cycle h.Image.h_probe h.Image.h_binary h.Image.h_payload)
      files
  in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run $ files_arg)

(* --- the group ------------------------------------------------------------ *)

let cmd =
  let doc =
    "Sealed, versioned checkpoint/resume for long-horizon runs: capture \
     a quiescent world into an authenticated image (same sealing as the \
     EPC paging path, with a monotonic freshness counter), restore it in \
     a fresh process of the same binary, and continue bit-identically."
  in
  Cmd.group (Cmd.info "snapshot" ~doc) [ run_cmd; resume_cmd; replay_cmd; info_cmd ]
