let adversaries =
  [
    Copycat.adversary;
    Branch_shadow.adversary;
    Pigeonhole.adversary;
    Kingsguard.adversary;
  ]

let all_adversaries = adversaries

let find_adversary id =
  List.find_opt (fun a -> a.Adversary.id = id) adversaries

let configs =
  (Victim.Baseline, `Sgx1)
  :: List.concat_map
       (fun p -> [ (p, `Sgx1); (p, `Sgx2) ])
       [ Victim.Rate_limit; Victim.Clusters; Victim.Oram ]

type cell = {
  c_adversary : string;
  c_policy : Victim.policy;
  c_mech : Autarky.Pager.mech;
  c_outcome : Adversary.outcome;
  c_requests : int;
  c_alphabet : int;
  c_observations : int;
  c_bits_leaked : float;
  c_bits_ideal : float;
  c_guess_probability : float;
  c_blind_guess : float;
  c_probes : int;
  c_terminations : int;
  c_termination_bits : float;
  c_digest : string;
}

let sizes ~quick = if quick then (16, 16) else (48, 32)

let log2 x = log x /. log 2.0

let run_cell ~adversary ~policy ~mech ~symbols ~alphabet ~seed =
  let cfg = { Victim.policy; mech; symbols; alphabet; seed } in
  let v, r = adversary.Adversary.run (fun () -> Victim.create cfg) in
  let secret = Victim.secret v in
  let by_request = Hashtbl.create symbols in
  List.iter
    (fun ob ->
      Hashtbl.replace by_request ob.Adversary.ob_request
        ob.Adversary.ob_candidates)
    r.Adversary.res_observations;
  let score = Attacks.Leakage.create_score () in
  let bits = ref 0.0 in
  let nonempty = ref 0 in
  for req = 0 to symbols - 1 do
    let cands =
      Option.value (Hashtbl.find_opt by_request req) ~default:[]
    in
    let k = List.length cands in
    let hit = List.mem secret.(req) cands in
    if k > 0 then incr nonempty;
    Attacks.Leakage.observe score ~candidates:k ~accessed_in_set:hit
      ~total_items:alphabet;
    (* A candidate set holding the truth narrows log2 N down to
       log2 k; a miss (or silence) recovers nothing. *)
    if hit && k > 0 then
      bits := !bits +. (log2 (float_of_int alphabet) -. log2 (float_of_int k))
  done;
  {
    c_adversary = adversary.Adversary.id;
    c_policy = policy;
    c_mech = mech;
    c_outcome = r.Adversary.res_outcome;
    c_requests = symbols;
    c_alphabet = alphabet;
    c_observations = !nonempty;
    c_bits_leaked = !bits;
    c_bits_ideal = float_of_int symbols *. log2 (float_of_int alphabet);
    c_guess_probability = Attacks.Leakage.guess_probability score;
    c_blind_guess = 1.0 /. float_of_int alphabet;
    c_probes = r.Adversary.res_probes;
    c_terminations = r.Adversary.res_terminations;
    (* §5.3: each termination the OS provokes tells it at most one bit. *)
    c_termination_bits = float_of_int r.Adversary.res_terminations;
    c_digest = Victim.digest v;
  }

let run ?(quick = false) ?(adversaries = adversaries) ?(policies = Victim.all_policies)
    ?(mechs = [ `Sgx1; `Sgx2 ]) ~seed ~jobs () =
  let symbols, alphabet = sizes ~quick in
  let wanted_adv a = List.exists (fun a' -> a'.Adversary.id = a.Adversary.id) adversaries in
  let wanted_cfg (p, m) =
    List.mem p policies && (List.mem m mechs || p = Victim.Baseline)
  in
  (* Shard seeds index into the canonical *full* matrix, so a filtered
     sweep reproduces exactly the cells of an unfiltered one. *)
  let tasks =
    List.concat_map
      (fun a -> List.map (fun c -> (a, c)) configs)
      all_adversaries
    |> List.mapi (fun idx (a, c) -> (idx, a, c))
    |> List.filter (fun (_, a, c) -> wanted_adv a && wanted_cfg c)
  in
  Parallel.Pool.map ~jobs
    (fun (idx, adversary, (policy, mech)) ->
      run_cell ~adversary ~policy ~mech ~symbols ~alphabet
        ~seed:(Parallel.Pool.shard_seed ~root:seed ~shard:idx))
    tasks

let outcome_strings = function
  | Adversary.Completed -> ("completed", "")
  | Adversary.Detected reason -> ("detected", reason)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json ~quick ~seed cells =
  let b = Buffer.create 8_192 in
  let f = Printf.sprintf "%.6f" in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"autarky-redteam/1\",\n";
  Buffer.add_string b (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string b (Printf.sprintf "  \"seed\": %d,\n" seed);
  Buffer.add_string b "  \"cells\": [\n";
  let last = List.length cells - 1 in
  List.iteri
    (fun i c ->
      let outcome, reason = outcome_strings c.c_outcome in
      Buffer.add_string b
        (Printf.sprintf
           "    {\"adversary\": \"%s\", \"policy\": \"%s\", \"mech\": \
            \"%s\", \"outcome\": \"%s\", \"reason\": \"%s\", \"requests\": \
            %d, \"alphabet\": %d, \"observations\": %d, \"bits_leaked\": %s, \
            \"bits_ideal\": %s, \"guess_probability\": %s, \
            \"blind_guess_probability\": %s, \"probes\": %d, \
            \"terminations\": %d, \"termination_bits\": %s, \"digest\": \
            \"%s\"}%s\n"
           (json_escape c.c_adversary)
           (Victim.policy_name c.c_policy)
           (Harness.Builder.mech_name c.c_mech)
           outcome (json_escape reason) c.c_requests c.c_alphabet
           c.c_observations (f c.c_bits_leaked) (f c.c_bits_ideal)
           (f c.c_guess_probability) (f c.c_blind_guess) c.c_probes
           c.c_terminations
           (f c.c_termination_bits)
           (json_escape c.c_digest)
           (if i = last then "" else ",")))
    cells;
  Buffer.add_string b "  ]\n";
  Buffer.add_string b "}\n";
  Buffer.contents b

let print_table cells =
  Printf.printf "  %-14s %-11s %-5s %-9s %12s %11s %6s %6s\n" "adversary"
    "policy" "mech" "outcome" "bits_leaked" "bits_ideal" "obs" "kills";
  List.iter
    (fun c ->
      let outcome, _ = outcome_strings c.c_outcome in
      Printf.printf "  %-14s %-11s %-5s %-9s %12.2f %11.2f %6d %6d\n"
        c.c_adversary
        (Victim.policy_name c.c_policy)
        (Harness.Builder.mech_name c.c_mech)
        outcome c.c_bits_leaked c.c_bits_ideal c.c_observations
        c.c_terminations)
    cells
