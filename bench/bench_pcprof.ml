(* Exact-PC profile of one scenario: `main.exe pcprof SCN [-ops N]` runs
   the scenario file SCN N times (default 1) under the sampler of
   pcprof_stubs.c, one sample per millisecond of process CPU time, and
   prints each symbol's self share of the samples, resolved with `nm` on
   the running executable; when `nm` is absent it prints the raw addresses.
   A workload runs each load variant to its horizon and distils it; an
   attack runs each variant as `Scenario.leak_series` does. A tool for
   finding where time goes, with no bound: the shares depend on the host
   and the compiler. *)

module Dsl = Sw_workload.Dsl
module Run = Sw_workload.Run
module Scenario = Sw_attack.Scenario
module Cloud = Stopwatch.Cloud

external start : int -> int -> unit = "sw_pcprof_start"
external stop : unit -> int * int array = "sw_pcprof_stop"
external anchor : unit -> int = "sw_pcprof_anchor"

let interval_us = 1000
let capacity = 1 lsl 18
let top = 40

let run_once (t : Dsl.t) =
  match t.Dsl.kind with
  | Dsl.Workload w ->
      List.iter
        (fun (_, w) ->
          let h = Run.prepare w in
          Cloud.run h.Run.cloud ~until:h.Run.until;
          ignore (h.Run.finish ()))
        (Dsl.workload_variants ~name:t.Dsl.name w)
  | Dsl.Attack a ->
      List.iter
        (fun (_, spec) -> ignore (Scenario.leak_series spec))
        (Dsl.attack_specs a)

(* The text symbols of [exe] as a sorted (address, name) array, or [None]
   when `nm` cannot be run. A module's [code_begin] and [code_end] labels
   share their address with a function (the module's first, or the next
   module's), so they are left out. *)
let symbols exe =
  let out = Filename.temp_file "pcprof" ".nm" in
  let cmd =
    Printf.sprintf "nm -n --defined-only %s > %s 2>/dev/null"
      (Filename.quote exe) (Filename.quote out)
  in
  let status = Sys.command cmd in
  let syms =
    if status <> 0 then None
    else begin
      let ic = open_in out in
      let rec read acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | line -> (
            match String.split_on_char ' ' line with
            | [ addr; ("T" | "t" | "W" | "w"); name ]
              when not
                     (String.ends_with ~suffix:".code_begin" name
                     || String.ends_with ~suffix:".code_end" name) -> (
                match int_of_string_opt ("0x" ^ addr) with
                | Some a -> read ((a, name) :: acc)
                | None -> read acc)
            | _ -> read acc)
      in
      let syms = read [] in
      close_in ic;
      Some (Array.of_list (List.sort compare syms))
    end
  in
  Sys.remove out;
  syms

(* The name of the last symbol at or below [pc], by binary search. The
   executable's code ends with [_fini]; a [pc] past it or below the first
   symbol is in a shared library (libc, libm) or the vDSO. *)
let resolve syms ~text_end pc =
  if Array.length syms = 0 || pc < fst syms.(0) || pc > text_end then
    "[outside the executable]"
  else begin
    let lo = ref 0 and hi = ref (Array.length syms - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst syms.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    snd syms.(!lo)
  end

(* Symbol families the ledger follows across changes: indirect calls
   through closures and module blocks, and polymorphic hashing and
   comparison. *)
let groups =
  [
    ("caml_apply*", fun s -> String.starts_with ~prefix:"caml_apply" s);
    ( "caml_hash + compare_val + Stdlib.Hashtbl",
      fun s ->
        String.starts_with ~prefix:"caml_hash" s
        || List.mem s
             [ "compare_val"; "do_compare_val"; "caml_compare"; "caml_equal";
               "caml_notequal"; "caml_lessthan"; "caml_lessequal";
               "caml_greaterthan"; "caml_greaterequal" ]
        || String.starts_with ~prefix:"camlStdlib__Hashtbl" s );
  ]

let usage () =
  prerr_endline "usage: main.exe pcprof SCN [-ops N]";
  exit 2

let main args =
  let file, ops =
    match args with
    | [ file ] -> (file, 1)
    | [ file; "-ops"; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> (file, n)
        | _ -> usage ())
    | _ -> usage ()
  in
  let t =
    match Dsl.load_file file with
    | Ok t -> t
    | Error e ->
        prerr_endline e;
        exit 1
  in
  start capacity interval_us;
  for _ = 1 to ops do
    run_once t
  done;
  let taken, pcs = stop () in
  let counts = Hashtbl.create 256 in
  let label =
    match symbols Sys.executable_name with
    | Some syms -> (
        let address name =
          Option.map fst (Array.find_opt (fun (_, n) -> n = name) syms)
        in
        match address "sw_pcprof_start" with
        | Some a ->
            let offset = anchor () - a in
            let text_end = Option.value (address "_fini") ~default:max_int in
            fun pc -> resolve syms ~text_end (pc - offset)
        | None -> Printf.sprintf "0x%x")
    | None -> Printf.sprintf "0x%x"
  in
  Array.iter
    (fun pc ->
      let s = label pc in
      Hashtbl.replace counts s (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
    pcs;
  let n = Array.length pcs in
  let share k = if n = 0 then 0. else 100. *. float_of_int k /. float_of_int n in
  Printf.printf
    "pcprof %s: %d ops, %d samples (one per %d us of CPU time asked; the \
     kernel's tick may space them wider), %d dropped\n"
    (Filename.basename file) ops n interval_us (taken - n);
  Printf.printf "%7s %8s  %s\n" "self" "samples" "symbol";
  let rows =
    List.sort
      (fun (a, x) (b, y) -> if x <> y then compare y x else compare a b)
      (Hashtbl.fold (fun s k acc -> (s, k) :: acc) counts [])
  in
  List.iteri
    (fun i (s, k) -> if i < top then Printf.printf "%6.2f%% %8d  %s\n" (share k) k s)
    rows;
  List.iter
    (fun (name, member) ->
      let k = List.fold_left (fun acc (s, k) -> if member s then acc + k else acc) 0 rows in
      Printf.printf "%6.2f%% %8d  [%s]\n" (share k) k name)
    groups
