module M = Wf.Wmodule
module W = Wf.Workflow
module R = Rel.Relation
module S = Rel.Schema
module T = Rel.Tuple
module P = Rel.Plan
module Hset = Svutil.Hset

let default_max = Worlds_naive.default_max
let pow_int = Worlds_naive.pow_int
let mul_sat = Worlds_naive.mul_sat
let guard = Worlds_naive.guard

(* ------------------------------------------------------------------ *)
(* The pruned slot search                                              *)
(*                                                                     *)
(* Every enumerator below is an assignment of "slots" (input tuples)   *)
(* to "choices" (candidate rows, possibly absent). Instead of testing  *)
(* each of the (choices+1)^slots candidate relations against the view  *)
(* afterwards, we compile the view into per-slot candidate lists and   *)
(* backtrack:                                                          *)
(*   - a candidate row is valid only if its visible projection is a    *)
(*     view tuple (invalid rows prune the whole subtree);              *)
(*   - each view tuple has a last slot that can produce it; passing    *)
(*     that slot without covering the tuple prunes the subtree;        *)
(*   - cross-row constraints (per-module FDs) are checked when a row   *)
(*     is placed, through commit/uncommit hooks.                       *)
(* A leaf of the surviving tree IS a world; no filtering remains.      *)
(* ------------------------------------------------------------------ *)

type search = {
  slot_rows : (T.t * int) array array;
      (* per slot: valid (row, view id) candidates, in choice order *)
  allow_absent : bool array;
  deadlines : int list array;  (* view ids last producible at this slot *)
  n_view : int;
  feasible : bool;  (* false iff some view tuple has no producer *)
}

let make_search ~slot_rows ~allow_absent ~n_view =
  let slots = Array.length slot_rows in
  let last = Array.make (max n_view 1) (-1) in
  Array.iteri
    (fun i cands ->
      Array.iter (fun (_, vid) -> if last.(vid) < i then last.(vid) <- i) cands)
    slot_rows;
  let feasible =
    n_view = 0 || Array.for_all (fun l -> l >= 0) (Array.sub last 0 n_view)
  in
  let deadlines = Array.make (max slots 1) [] in
  if feasible then
    Array.iteri
      (fun vid l -> if vid < n_view then deadlines.(l) <- vid :: deadlines.(l))
      last;
  { slot_rows; allow_absent; deadlines; n_view; feasible }

(* [commit i row] places a row (false = constraint conflict, state
   unchanged); [uncommit i row] undoes a successful commit. [on_world]
   receives the placed rows (unspecified order) and returns [false] to
   stop the whole search. *)
let run_search ?(metrics = Svutil.Metrics.nop) s ~commit ~uncommit ~on_world =
  (* Hot loop: prune/leaf counts accumulate locally and flush once per
     search. A pruned branch is a slot choice rejected before recursing
     (constraint conflict or an uncoverable view tuple). *)
  let enumerated = ref 0 in
  let pruned = ref 0 in
  if s.feasible then begin
    let slots = Array.length s.slot_rows in
    let covered = Array.make (max s.n_view 1) 0 in
    let stop = ref false in
    let deadline_ok i = List.for_all (fun v -> covered.(v) > 0) s.deadlines.(i) in
    let rec go i acc_rows =
      if not !stop then
        if i = slots then begin
          incr enumerated;
          if not (on_world acc_rows) then stop := true
        end
        else begin
          let cands = s.slot_rows.(i) in
          let n = Array.length cands in
          let j = ref 0 in
          while (not !stop) && !j < n do
            let row, vid = cands.(!j) in
            if commit i row then begin
              covered.(vid) <- covered.(vid) + 1;
              if deadline_ok i then go (i + 1) (row :: acc_rows)
              else incr pruned;
              covered.(vid) <- covered.(vid) - 1;
              uncommit i row
            end
            else incr pruned;
            incr j
          done;
          (* The absent choice comes last, matching the naive oracle's
             assignment order. *)
          if (not !stop) && s.allow_absent.(i) then begin
            if deadline_ok i then go (i + 1) acc_rows else incr pruned
          end
        end
    in
    go 0 []
  end;
  Svutil.Metrics.count metrics "worlds.enumerated" !enumerated;
  Svutil.Metrics.count metrics "worlds.pruned" !pruned

let no_commit _ _ = true
let no_uncommit _ _ = ()

let compile_view view =
  let tbl = Hashtbl.create 32 in
  List.iteri (fun i t -> Hashtbl.replace tbl t i) (R.rows view);
  (tbl, R.size view)

(* Incremental per-module functional-dependency state: commit inserts
   each module's (input, output) projection of the row, rejecting on a
   conflict; uncommit removes what the matching commit inserted. *)
let fd_hooks ~schema ~slots mods =
  let tables =
    Array.of_list
      (List.map
         (fun (m : M.t) ->
           ( P.ordered schema (M.input_names m),
             P.ordered schema (M.output_names m),
             Hashtbl.create 32 ))
         mods)
  in
  let journal = Array.make (max slots 1) [] in
  let commit i row =
    let added = ref [] in
    let ok =
      try
        Array.iter
          (fun (in_plan, out_plan, tbl) ->
            let k = P.apply in_plan row in
            let v = P.apply out_plan row in
            match Hashtbl.find_opt tbl k with
            | Some v' -> if not (T.equal v v') then raise Exit
            | None ->
                Hashtbl.replace tbl k v;
                added := (tbl, k) :: !added)
          tables;
        true
      with Exit -> false
    in
    if ok then journal.(i) <- !added
    else List.iter (fun (tbl, k) -> Hashtbl.remove tbl k) !added;
    ok
  in
  let uncommit i _row =
    List.iter (fun (tbl, k) -> Hashtbl.remove tbl k) journal.(i);
    journal.(i) <- []
  in
  (commit, uncommit)

(* ------------------------------------------------------------------ *)
(* Standalone worlds: partial functions Dom -> Range                   *)
(* ------------------------------------------------------------------ *)

type standalone_compiled = {
  sa_search : search;
  sa_schema : S.t;
  sa_dom : T.t array;
  sa_in_width : int;
}

let compile_standalone ?(max_worlds = default_max) m ~visible =
  let in_schema = M.input_schema m and out_schema = M.output_schema m in
  let dom = Array.of_list (S.all_tuples in_schema) in
  let range = Array.of_list (S.all_tuples out_schema) in
  let n_range = Array.length range in
  let slots = Array.length dom in
  guard "standalone_worlds" (pow_int (n_range + 1) slots) max_worlds;
  let schema = R.schema m.M.table in
  let view = R.project m.M.table visible in
  let vis_plan = P.restrict schema visible in
  let view_ids, n_view = compile_view view in
  let slot_rows =
    Array.map
      (fun x ->
        Array.of_seq
          (Seq.filter_map
             (fun v ->
               let row = Array.append x range.(v) in
               match Hashtbl.find_opt view_ids (P.apply vis_plan row) with
               | Some vid -> Some (row, vid)
               | None -> None)
             (Seq.init n_range Fun.id)))
      dom
  in
  {
    sa_search = make_search ~slot_rows ~allow_absent:(Array.make slots true) ~n_view;
    sa_schema = schema;
    sa_dom = dom;
    sa_in_width = S.size in_schema;
  }

let fold_standalone_worlds ?max_worlds ?metrics m ~visible ~init ~f =
  let c = compile_standalone ?max_worlds m ~visible in
  let acc = ref init in
  run_search ?metrics c.sa_search ~commit:no_commit ~uncommit:no_uncommit
    ~on_world:(fun rows ->
      acc := f !acc (R.create c.sa_schema rows);
      true);
  !acc

let standalone_worlds ?max_worlds ?metrics m ~visible =
  List.rev
    (fold_standalone_worlds ?max_worlds ?metrics m ~visible ~init:[]
       ~f:(fun acc w -> w :: acc))

let count_standalone_worlds ?max_worlds ?metrics m ~visible =
  let c = compile_standalone ?max_worlds m ~visible in
  let n = ref 0 in
  run_search ?metrics c.sa_search ~commit:no_commit ~uncommit:no_uncommit
    ~on_world:(fun _ ->
      incr n;
      true);
  !n

let standalone_out_set ?max_worlds ?metrics m ~visible ~input =
  let c = compile_standalone ?max_worlds m ~visible in
  let slots = Array.length c.sa_dom in
  let rec find_slot i =
    if i >= slots then None
    else if T.equal c.sa_dom.(i) input then Some i
    else find_slot (i + 1)
  in
  match find_slot 0 with
  | None -> []
  | Some sx ->
      (* y is a possible output for [input] iff fixing the slot to the
         row (input, y) still admits a completion to a full world. *)
      let outs =
        Array.to_list c.sa_search.slot_rows.(sx)
        |> List.filter_map (fun cand ->
               let slot_rows = Array.copy c.sa_search.slot_rows in
               slot_rows.(sx) <- [| cand |];
               let allow_absent = Array.copy c.sa_search.allow_absent in
               allow_absent.(sx) <- false;
               let s = { c.sa_search with slot_rows; allow_absent } in
               let found = ref false in
               run_search ?metrics s ~commit:no_commit ~uncommit:no_uncommit
                 ~on_world:(fun _ ->
                   found := true;
                   false);
               if !found then
                 let row = fst cand in
                 Some
                   (Array.sub row c.sa_in_width
                      (Array.length row - c.sa_in_width))
               else None)
      in
      List.sort T.compare outs

(* ------------------------------------------------------------------ *)
(* Workflow worlds                                                     *)
(*                                                                     *)
(* Both workflow enumerators assign one slot per initial-input tuple;  *)
(* a choice is a completion of the non-initial attributes. Public      *)
(* modules and the view prune per-slot candidates; private-module FDs  *)
(* are enforced incrementally by the commit hooks. Function-family     *)
(* worlds (Lemma 1) are exactly the relations with a row for every     *)
(* initial input, so they use the same search without the absent       *)
(* choice — each surviving leaf is one world, no dedup needed.         *)
(* ------------------------------------------------------------------ *)

type workflow_compiled = {
  wf_search : search;
  wf_schema : S.t;
  wf_privates : M.t list;
}

let public_row_filter ~schema mods ~public =
  let compiled =
    List.filter_map
      (fun (m : M.t) ->
        if not (List.mem m.M.name public) then None
        else begin
          let mschema = R.schema m.M.table in
          let key_plan = P.ordered mschema (M.input_names m) in
          let val_plan = P.ordered mschema (M.output_names m) in
          let tbl = Hashtbl.create (R.size m.M.table) in
          R.iter m.M.table ~f:(fun row ->
              Hashtbl.replace tbl (P.apply key_plan row) (P.apply val_plan row));
          Some
            ( P.ordered schema (M.input_names m),
              P.ordered schema (M.output_names m),
              tbl )
        end)
      mods
  in
  fun row ->
    List.for_all
      (fun (in_plan, out_plan, tbl) ->
        match Hashtbl.find_opt tbl (P.apply in_plan row) with
        | Some y -> T.equal y (P.apply out_plan row)
        | None -> false)
      compiled

let compile_workflow ~guard_name ~guard_count ~absent ~max_worlds w ~public
    ~visible =
  let schema = w.W.schema in
  let initial = W.initial_names w in
  let init_schema = S.restrict schema initial in
  let rest_names =
    List.filter (fun n -> not (List.mem n initial)) (S.names schema)
  in
  let rest_schema = S.restrict schema rest_names in
  let dom = Array.of_list (S.all_tuples init_schema) in
  let completions = Array.of_list (S.all_tuples rest_schema) in
  let slots = Array.length dom in
  guard guard_name (guard_count ~slots ~n_comp:(Array.length completions))
    max_worlds;
  let base = W.relation w in
  let view = R.project base visible in
  let vis_plan = P.restrict schema visible in
  let view_ids, n_view = compile_view view in
  let mods = W.modules w in
  let publics_ok = public_row_filter ~schema mods ~public in
  let slot_rows =
    Array.map
      (fun x ->
        (* Initial attributes are the schema prefix, so a row is just
           initial values followed by a completion. *)
        Array.of_seq
          (Seq.filter_map
             (fun ci ->
               let row = Array.append x completions.(ci) in
               if not (publics_ok row) then None
               else
                 match Hashtbl.find_opt view_ids (P.apply vis_plan row) with
                 | Some vid -> Some (row, vid)
                 | None -> None)
             (Seq.init (Array.length completions) Fun.id)))
      dom
  in
  {
    wf_search =
      make_search ~slot_rows ~allow_absent:(Array.make slots absent) ~n_view;
    wf_schema = schema;
    wf_privates =
      List.filter (fun (m : M.t) -> not (List.mem m.M.name public)) mods;
  }

let function_space_size w ~public =
  List.fold_left
    (fun acc (m : M.t) ->
      if List.mem m.M.name public then acc
      else
        mul_sat acc
          (pow_int
             (S.domain_size (M.output_schema m))
             (S.domain_size (M.input_schema m))))
    1 (W.modules w)

(* The pruned function-family search assumes every initial input yields
   a row, which holds only when every public module is total; fall back
   to the naive oracle otherwise. *)
let partial_public w ~public =
  List.exists
    (fun (m : M.t) ->
      List.mem m.M.name public
      && (match S.domain_size (M.input_schema m) with
         | n -> R.size m.M.table < n
         | exception Failure _ -> true))
    (W.modules w)

let compile_workflow_functions ?(max_worlds = default_max) w ~public ~visible =
  let count ~slots:_ ~n_comp:_ = function_space_size w ~public in
  compile_workflow ~guard_name:"workflow_worlds_functions" ~guard_count:count
    ~absent:false ~max_worlds w ~public ~visible

let fold_workflow_worlds_functions ?max_worlds ?metrics w ~public ~visible
    ~init ~f =
  if partial_public w ~public then
    List.fold_left f init
      (Worlds_naive.workflow_worlds_functions ?max_worlds w ~public ~visible)
  else begin
    let c = compile_workflow_functions ?max_worlds w ~public ~visible in
    let commit, uncommit =
      fd_hooks ~schema:c.wf_schema
        ~slots:(Array.length c.wf_search.slot_rows)
        c.wf_privates
    in
    let acc = ref init in
    run_search ?metrics c.wf_search ~commit ~uncommit ~on_world:(fun rows ->
        acc := f !acc (R.create c.wf_schema rows);
        true);
    !acc
  end

let exists_workflow_world_functions ?max_worlds ?metrics w ~public ~visible
    ~f =
  if partial_public w ~public then
    List.exists f
      (Worlds_naive.workflow_worlds_functions ?max_worlds w ~public ~visible)
  else begin
    let c = compile_workflow_functions ?max_worlds w ~public ~visible in
    let commit, uncommit =
      fd_hooks ~schema:c.wf_schema
        ~slots:(Array.length c.wf_search.slot_rows)
        c.wf_privates
    in
    let found = ref false in
    run_search ?metrics c.wf_search ~commit ~uncommit ~on_world:(fun rows ->
        if f (R.create c.wf_schema rows) then found := true;
        not !found);
    !found
  end

let workflow_worlds_functions ?max_worlds ?metrics w ~public ~visible =
  fold_workflow_worlds_functions ?max_worlds ?metrics w ~public ~visible
    ~init:[] ~f:(fun acc w -> w :: acc)
  |> List.sort (fun a b -> compare (R.rows a) (R.rows b))

let workflow_out_set ?max_worlds ?metrics w ~public ~visible ~module_name
    ~input =
  let m =
    match W.find_module w module_name with
    | Some m -> m
    | None -> invalid_arg ("Worlds.workflow_out_set: no module " ^ module_name)
  in
  let schema = w.W.schema in
  let in_plan = P.ordered schema (M.input_names m) in
  let out_plan = P.ordered schema (M.output_names m) in
  let range_size = S.domain_size (M.output_schema m) in
  let seen = Hset.create 16 in
  let vacuous = ref false in
  let saturated () = !vacuous || Hset.cardinal seen = range_size in
  ignore
    (exists_workflow_world_functions ?max_worlds ?metrics w ~public ~visible
       ~f:(fun world ->
         let seen_input = ref false in
         R.iter world ~f:(fun row ->
             if T.equal (P.apply in_plan row) input then begin
               seen_input := true;
               Hset.add seen (P.apply out_plan row)
             end);
         (* Definition 5 is universally quantified: a world in which
            [input] never occurs makes every output vacuously
            possible. *)
         if not !seen_input then vacuous := true;
         saturated ()));
  if !vacuous then S.all_tuples (M.output_schema m)
  else List.sort T.compare (Hset.elements seen)

(* ------------------------------------------------------------------ *)
(* Literal workflow worlds: partial maps from initial inputs to tuples *)
(* ------------------------------------------------------------------ *)

let workflow_worlds_tuples ?(max_worlds = default_max) ?metrics w ~public
    ~visible =
  let count ~slots ~n_comp = pow_int (n_comp + 1) slots in
  let c =
    compile_workflow ~guard_name:"workflow_worlds_tuples" ~guard_count:count
      ~absent:true ~max_worlds w ~public ~visible
  in
  let commit, uncommit =
    fd_hooks ~schema:c.wf_schema
      ~slots:(Array.length c.wf_search.slot_rows)
      c.wf_privates
  in
  let acc = ref [] in
  run_search ?metrics c.wf_search ~commit ~uncommit ~on_world:(fun rows ->
      acc := R.create c.wf_schema rows :: !acc;
      true);
  List.rev !acc
