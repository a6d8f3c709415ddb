(* Check that every [EXPERIMENTS.md "<name>"] citation in the given
   documents names a section of EXPERIMENTS.md, that is a heading
   [## <name>] or [## <name> (...)].  A citation may chain more names
   ([EXPERIMENTS.md "A" and "B"]).  Names in angle brackets are
   placeholders and are skipped.  Usage:
   check_citations EXPERIMENTS.md DOC.md...; exits 1 on a dangling
   citation. *)

let read file = In_channel.with_open_bin file In_channel.input_all

(* Runs of blanks and newlines as one space, so a citation wrapped
   across lines still matches. *)
let squeeze s =
  let b = Buffer.create (String.length s) in
  let blank = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\n' | '\t' | '\r' -> blank := true
      | c ->
        if !blank then Buffer.add_char b ' ';
        blank := false;
        Buffer.add_char b c)
    s;
  Buffer.contents b

let sections file =
  String.split_on_char '\n' (read file)
  |> List.filter_map (fun l ->
         if String.starts_with ~prefix:"## " l then
           let t = String.sub l 3 (String.length l - 3) in
           let name =
             match String.index_opt t '(' with
             | Some i -> String.trim (String.sub t 0 i)
             | None -> String.trim t
           in
           Some name
         else None)

let quoted s i =
  (* [s.[i]] is an opening quote: the name and the index after it. *)
  match String.index_from_opt s (i + 1) '"' with
  | Some j -> Some (String.sub s (i + 1) (j - i - 1), j + 1)
  | None -> None

let rec chained s i acc =
  let try_sep sep =
    let n = String.length sep in
    if i + n < String.length s && String.sub s i n = sep && s.[i + n] = '"' then
      match quoted s (i + n) with
      | Some (name, k) -> Some (chained s k (name :: acc))
      | None -> None
    else None
  in
  match List.find_map try_sep [ " and "; ", and "; ", " ] with
  | Some r -> r
  | None -> acc

let citations s =
  let key = "EXPERIMENTS.md \"" in
  let kn = String.length key in
  let rec go i acc =
    if i + kn > String.length s then acc
    else if String.sub s i kn = key then
      match quoted s (i + kn - 1) with
      | Some (name, k) -> go k (chained s k (name :: acc))
      | None -> acc
    else go (i + 1) acc
  in
  List.rev (go 0 [])

let () =
  match Array.to_list Sys.argv with
  | _ :: experiments :: docs ->
    let known = sections experiments in
    let bad = ref 0 in
    List.iter
      (fun doc ->
        List.iter
          (fun name ->
            let placeholder =
              String.length name > 1 && name.[0] = '<' && name.[String.length name - 1] = '>'
            in
            if (not placeholder) && not (List.mem name known) then begin
              incr bad;
              Printf.printf "%s: EXPERIMENTS.md %S names no section\n" doc name
            end)
          (citations (squeeze (read doc))))
      docs;
    if !bad > 0 then exit 1
  | _ ->
    prerr_endline "usage: check_citations EXPERIMENTS.md DOC.md...";
    exit 2
