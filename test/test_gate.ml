(* Tests for the gate registry behind [memhog gate]: unique names, each
   entry's cells, every committed baseline present and loadable, what the
   tolerance-0 comparison reports, and name selection.  The entries'
   simulations stay out of this suite: running them is the gate's job. *)

module Gate = Memhog_core.Gate
module Figures = Memhog_core.Figures
module Mio = Memhog_core.Metrics_io
module Perf = Memhog_core.Perf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let names = List.map (fun (e : Gate.entry) -> e.Gate.name) Gate.entries
let path (e : Gate.entry) = Filename.concat "../bench" e.Gate.baseline

let baseline name =
  let e = List.find (fun (e : Gate.entry) -> e.Gate.name = name) Gate.entries in
  match Mio.read_file ~path:(path e) with
  | Ok j -> j
  | Error msg -> Alcotest.fail msg

(* Add one to the number at [keys] (object members and array indices), so
   exactly one number lexeme changes. *)
let rec bump keys j =
  match (keys, j) with
  | [], Mio.Num (v, _) -> Mio.num_of_float (v +. 1.0)
  | `K k :: rest, Mio.Obj kvs ->
      Mio.Obj
        (List.map (fun (k', v) -> (k', if k' = k then bump rest v else v)) kvs)
  | `I i :: rest, Mio.Arr xs ->
      Mio.Arr (List.mapi (fun i' v -> if i' = i then bump rest v else v) xs)
  | _ -> Alcotest.fail "no number at that path"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_names_unique () =
  check_int "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* Every cell an entry declares is its own simulation: a grid whose cells
   collapse under the plan's dedupe would silently read one result twice.
   Counted without simulating. *)
let test_entry_cells_distinct () =
  List.iter
    (fun (e : Gate.entry) ->
      let n = List.length e.Gate.cells in
      check_int (e.Gate.name ^ " cells distinct") n
        (List.length (Figures.distinct e.Gate.cells));
      check_int (e.Gate.name ^ " cell count")
        (List.assoc e.Gate.name
           [
             ("smoke", 5); ("chaos", 3); ("serve", 4); ("tiers", 5); ("obs", 1);
             ("perf", 4);
           ])
        n)
    Gate.entries

(* Each baseline carries its schema header. *)
let test_baselines_load () =
  List.iter
    (fun (e : Gate.entry) ->
      let load =
        if e.Gate.name = "perf" then Perf.load_file else Mio.load_file
      in
      match load ~path:(path e) with
      | Error msg -> Alcotest.fail msg
      | Ok _ -> ())
    Gate.entries

let test_compare_names_path () =
  let base = baseline "serve" in
  check_int "identical documents: no diffs" 0
    (List.length (Gate.compare ~baseline:base base));
  let current = bump [ `K "cells"; `I 0; `K "fault_hist"; `K "p99_ns" ] base in
  match Gate.compare ~baseline:base current with
  | [ d ] -> check_str "path" "cells[0].fault_hist.p99_ns" d.Mio.d_path
  | ds -> Alcotest.failf "expected one diff, got %d" (List.length ds)

let test_select () =
  (match Gate.select [ "nosuch" ] with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error msg ->
      List.iter
        (fun n ->
          check_bool (Printf.sprintf "error names %S" n) true (contains msg n))
        ("nosuch" :: names));
  (match Gate.select [] with
  | Ok es ->
      check_int "no names selects every entry" (List.length names)
        (List.length es)
  | Error msg -> Alcotest.fail msg);
  match Gate.select [ "perf"; "smoke" ] with
  | Ok es ->
      Alcotest.(check (list string))
        "given order kept" [ "perf"; "smoke" ]
        (List.map (fun (e : Gate.entry) -> e.Gate.name) es)
  | Error msg -> Alcotest.fail msg

let () =
  Alcotest.run "memhog_gate"
    [
      ( "gate",
        [
          Alcotest.test_case "registry names unique" `Quick test_names_unique;
          Alcotest.test_case "entry cells are distinct" `Quick
            test_entry_cells_distinct;
          Alcotest.test_case "baselines exist and load" `Quick
            test_baselines_load;
          Alcotest.test_case "compare names the perturbed path" `Quick
            test_compare_names_path;
          Alcotest.test_case "unknown name rejected, known listed" `Quick
            test_select;
        ] );
    ]
