(* Resumable long-horizon workload runner: the perf-matrix cell shape
   (workload x policy x mechanism, fixed geometry), rebuilt as a
   stepped world so a horizon can be cut into time slices — run to
   operation N, seal, resume (same or different process), continue —
   with the determinism contract checked by trace digest + counter
   fingerprint equality against the straight-through run.

   Differences from [Harness.Perf.run_cell], all deliberate:
   - tracing is on, with a digest sink attached at build time, so
     every run yields a comparable digest;
   - each operation is its own enclave entry (the quiescent point);
   - no wall-clock, no [Gc] sampling, no clock reset: the virtual
     clock runs monotonically from build so "cycle at capture" means
     something across slices. *)

module System = Harness.System
module Builder = Harness.Builder

type cell = Builder.workload * Builder.policy * Autarky.Pager.mech

type spec = {
  sp_workload : Builder.workload;
  sp_policy : Builder.policy;
  sp_mech : Autarky.Pager.mech;
  sp_seed : int;
  sp_ops : int;
}

let cell_to_string (w, p, m) =
  String.concat ":"
    [ Builder.workload_name w; Builder.policy_name p; Builder.mech_name m ]

let cell_name s = cell_to_string (s.sp_workload, s.sp_policy, s.sp_mech)

let spec_label s =
  Printf.sprintf "longrun/%s/seed%d/ops%d"
    (String.map (function ':' -> '/' | c -> c) (cell_name s))
    s.sp_seed s.sp_ops

let cell_of_string str =
  let parse w p m =
    match Builder.(workload_of_name w, policy_of_name p, mech_of_name m) with
    | Some w, Some p, Some m -> Some (w, p, m)
    | _ -> None
  in
  match String.split_on_char ':' str with
  | [ w; p; m ] -> parse w p m
  | [ "kernel"; k; p; m ] -> parse ("kernel:" ^ k) p m
  | _ -> None

type world = {
  w_spec : spec;
  w_sys : System.t;
  w_op : int -> unit;
  w_digest : unit -> string;
  mutable w_done : int;
}

let kind = "longrun"

let build spec =
  let digest = ref (fun () -> "") in
  let on_system sys =
    let dsink, dres = Trace.Sink.digest () in
    Trace.Recorder.add_sink (System.tracer_exn sys) dsink;
    digest := dres
  in
  let sys, op =
    Builder.build ~on_system
      (Builder.spec ~mech:spec.sp_mech ~trace:true spec.sp_policy)
      spec.sp_workload ~seed:spec.sp_seed
  in
  {
    w_spec = spec;
    w_sys = sys;
    w_op = (fun i -> System.run_in_enclave sys (fun () -> op i));
    w_digest = !digest;
    w_done = 0;
  }

let step w =
  if w.w_done >= w.w_spec.sp_ops then false
  else begin
    w.w_op (w.w_done + 1);
    w.w_done <- w.w_done + 1;
    true
  end

let machine w = System.machine w.w_sys

(* One comparable line per completed horizon: the whole
   resume-equivalence check is a string equality over this. *)
type outcome = {
  o_spec : spec;
  o_done : int;
  o_cycles : int;
  o_faults : int;
  o_digest : string;
  o_counters : string;
}

let outcome w =
  {
    o_spec = w.w_spec;
    o_done = w.w_done;
    o_cycles = Metrics.Clock.now (System.clock w.w_sys);
    o_faults = Metrics.Counters.get (System.counters w.w_sys) "cpu.page_fault";
    o_digest = w.w_digest ();
    o_counters = World.counters_fingerprint (System.counters w.w_sys);
  }

let outcome_line o =
  Printf.sprintf
    "longrun %s seed %d ops %d/%d cycles %d faults %d digest %s counters %s"
    (cell_name o.o_spec) o.o_spec.sp_seed o.o_done o.o_spec.sp_ops o.o_cycles o.o_faults o.o_digest o.o_counters

(* --- sliced execution -------------------------------------------------- *)

let sanitize s = String.map (function '/' -> '_' | c -> c) s

let image_path ~dir spec =
  Filename.concat dir (sanitize (spec_label spec) ^ ".snap")

(* Run a built (or restored) world forward.  [stop_at] pauses the world
   at that operation count and seals it; [snapshot_every] additionally
   seals every K operations along the way (each save bumps the
   monotonic counter, so the newest image is always the freshest).
   Returns [Ok outcome] when the horizon completed, [Error path] when
   the world was paused into [path]. *)
let advance ?stop_at ?snapshot_every ?store ?dir w =
  let store =
    match store with
    | Some s -> s
    | None -> Image.Store.in_memory ()
  in
  let path () =
    match dir with
    | Some d -> image_path ~dir:d w.w_spec
    | None -> invalid_arg "Longrun.advance: snapshotting requires ~dir"
  in
  let seal () =
    let p = path () in
    ignore
      (World.save ~store ~kind ~label:(spec_label w.w_spec)
         ~machine:(machine w) w ~path:p);
    p
  in
  let stop = Option.value stop_at ~default:max_int in
  let rec go () =
    if w.w_done >= stop && w.w_done < w.w_spec.sp_ops then Error (seal ())
    else if not (step w) then Ok (outcome w)
    else begin
      (match snapshot_every with
      | Some k when k > 0 && w.w_done mod k = 0 && w.w_done < w.w_spec.sp_ops ->
        ignore (seal ())
      | _ -> ());
      go ()
    end
  in
  go ()

let resume ?store ~path () =
  World.load ?store ~kind ~machine_of:machine ~path ()
  |> Result.map (fun (_h, w) -> w)
