(* The correctness oracle. A served view is accepted only when

   - the response is ok, carries a solution and claims proven
     optimality;
   - every name in it is one of the request's own (prefixed) names;
   - the hidden set is safe by Theorem 8, rechecked from the module
     tables with [Privacy.Wprivacy.theorem8_safe] — independent of
     [Core.Derive] and of every solver;
   - its cost, recomputed here from the spec, equals both the reported
     cost and the recorded optimum in expected.json.

   Corpus instances carry requirement lists rather than module tables,
   so their solutions are rechecked against those lists by the small
   checker below, which shares no code with [Core.Instance]. *)

module J = Svutil.Json

type expected = {
  hot : string array;  (** optimum cost per hot-universe member *)
  cold : string array;
  corpus_seed : int;
  corpus : (string, string) Hashtbl.t;  (** instance id -> optimum cost *)
  inputs : (string * string) list;  (** universe -> digest of its inputs *)
}

let fail fmt = Printf.ksprintf failwith fmt

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = match J.of_string s with Ok j -> j | Error e -> fail "%s: %s" path e in
  let strs key =
    match J.member key j with
    | Some (J.Arr l) ->
        Array.of_list
          (List.map (function J.Str c -> c | _ -> fail "%s: %s" path key) l)
    | _ -> fail "%s: no %s array" path key
  in
  let obj key =
    match J.member key j with
    | Some (J.Obj kvs) ->
        List.map (fun (k, v) -> (k, match v with J.Str c -> c | _ -> fail "%s: %s" path key)) kvs
    | _ -> fail "%s: no %s object" path key
  in
  let corpus = Hashtbl.create 512 in
  List.iter (fun (k, v) -> Hashtbl.replace corpus k v) (obj "corpus");
  {
    hot = strs "hot";
    cold = strs "cold";
    corpus_seed =
      (match J.int_member "corpus_seed" j with
      | Some n -> n
      | None -> fail "%s: no corpus_seed" path);
    corpus;
    inputs = obj "inputs";
  }

(* A digest of a universe's first members' request text: the check that
   the generators still produce the inputs the optima were recorded
   for. *)
let universe_digest (u : Specgen.universe) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.init 64 (fun i -> Specgen.text (Specgen.member u i)))))

let instance_text (inst : Core.Instance.t) =
  let b = Buffer.create 1024 in
  let names l = String.concat "," l in
  List.iter
    (fun (a, c) -> Printf.bprintf b "a %s %s;" a (Rat.to_string c))
    inst.Core.Instance.attr_costs;
  List.iter
    (fun (m : Core.Instance.module_req) ->
      Printf.bprintf b "m %s %s %s " m.Core.Instance.m_name
        (names m.Core.Instance.inputs) (names m.Core.Instance.outputs);
      (match m.Core.Instance.req with
      | Core.Requirement.Card l ->
          List.iter (fun (x, y) -> Printf.bprintf b "c%d/%d " x y) l
      | Core.Requirement.Sets l ->
          List.iter (fun (i, o) -> Printf.bprintf b "s%s/%s " (names i) (names o)) l);
      Buffer.add_char b ';')
    inst.Core.Instance.mods;
  List.iter
    (fun (p : Core.Instance.public_mod) ->
      Printf.bprintf b "p %s %s %s;" p.Core.Instance.p_name
        (Rat.to_string p.Core.Instance.p_cost) (names p.Core.Instance.p_attrs))
    inst.Core.Instance.publics;
  Buffer.contents b

let corpus_digest (recs : Svbench.Corpus.inst_rec list) =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map
             (fun (r : Svbench.Corpus.inst_rec) ->
               r.Svbench.Corpus.id ^ " " ^ instance_text r.Svbench.Corpus.inst)
             recs)))

let input_digests ~corpus =
  [
    ("hot", universe_digest Specgen.hot_universe);
    ("cold", universe_digest Specgen.cold_universe);
    ("corpus", corpus_digest corpus);
  ]

let check_inputs e ~corpus =
  List.iter
    (fun (k, d) ->
      if List.assoc_opt k e.inputs <> Some d then
        fail
          "the %s inputs no longer match expected.json (the generators \
           changed); re-record it with --record"
          k)
    (input_digests ~corpus)

(* {1 Serve responses} *)

type view = { cost : string; hidden : string list; privatized : string list }

let str_list = function
  | Some (J.Arr l) ->
      Some (List.filter_map (function J.Str s -> Some s | _ -> None) l)
  | _ -> None

(* The solution of an ok, proven-optimal response, or [None]. *)
let view_of_response resp =
  match J.of_string resp with
  | Error _ -> None
  | Ok j -> (
      match (J.bool_member "ok" j, J.member "result" j) with
      | Some true, Some r -> (
          match (J.bool_member "proven_optimal" r, J.member "solution" r) with
          | Some true, Some sol -> (
              match
                ( J.str_member "cost" sol,
                  str_list (J.member "hidden" sol),
                  str_list (J.member "privatized" sol) )
              with
              | Some cost, Some hidden, Some privatized ->
                  Some { cost; hidden; privatized }
              | _ -> None)
          | _ -> None)
      | _ -> None)

let strip prefix name =
  let n = String.length prefix in
  if String.length name >= n && String.sub name 0 n = prefix then
    Some (String.sub name n (String.length name - n))
  else None

(* Theorem 8 recheck plus cost recomputation for one base view (names
   already un-prefixed). *)
let spec_view_ok (s : Specgen.t) ~expected v =
  let attrs = List.map fst s.Specgen.costs in
  let publics = List.map fst s.Specgen.publics in
  List.for_all (fun a -> List.mem a attrs) v.hidden
  && List.for_all (fun m -> List.mem m publics) v.privatized
  &&
  let cost =
    List.fold_left (fun acc a -> acc + List.assoc a s.Specgen.costs) 0 v.hidden
    + List.fold_left
        (fun acc m -> acc + List.assoc m s.Specgen.publics)
        0 v.privatized
  in
  string_of_int cost = v.cost
  && v.cost = expected
  && Privacy.Wprivacy.theorem8_safe s.Specgen.workflow ~public:publics
       ~privatized:v.privatized ~gamma:Specgen.gamma ~hidden:v.hidden

(* Verdicts memoized per (universe, member, base view): resubmissions of
   a spec are rechecked once per distinct answer. The table is emptied
   when it fills, so a stream of distinct specs cannot grow it. *)
let memo : (string * int * view, bool) Hashtbl.t = Hashtbl.create 4096

let check_serve universe ~expected (r : Specgen.request) resp =
  match view_of_response resp with
  | None -> false
  | Some v -> (
      let unprefix l = List.map (strip r.Specgen.prefix) l in
      let hidden = unprefix v.hidden and privatized = unprefix v.privatized in
      if List.mem None hidden || List.mem None privatized then false
      else
        let base =
          {
            v with
            hidden = List.sort compare (List.map Option.get hidden);
            privatized = List.sort compare (List.map Option.get privatized);
          }
        in
        let key = (universe, r.Specgen.spec.Specgen.index, base) in
        match Hashtbl.find_opt memo key with
        | Some ok -> ok
        | None ->
            let ok = spec_view_ok r.Specgen.spec ~expected base in
            if Hashtbl.length memo >= 1024 then Hashtbl.reset memo;
            Hashtbl.replace memo key ok;
            ok)

(* {1 Corpus results} *)

let subset a b = List.for_all (fun x -> List.mem x b) a
let count_in l hidden = List.length (List.filter (fun x -> List.mem x hidden) l)

let requirement_met (m : Core.Instance.module_req) hidden =
  match m.Core.Instance.req with
  | Core.Requirement.Card pairs ->
      let hi = count_in m.Core.Instance.inputs hidden
      and ho = count_in m.Core.Instance.outputs hidden in
      List.exists (fun (a, b) -> hi >= a && ho >= b) pairs
  | Core.Requirement.Sets options ->
      List.exists (fun (i, o) -> subset i hidden && subset o hidden) options

let corpus_ok (inst : Core.Instance.t) ~expected (s : Core.Solution.t) =
  let hidden = s.Core.Solution.hidden and privatized = s.Core.Solution.privatized in
  let cost =
    List.fold_left
      (fun acc a -> Rat.add acc (List.assoc a inst.Core.Instance.attr_costs))
      Rat.zero hidden
  in
  let cost =
    List.fold_left
      (fun acc (p : Core.Instance.public_mod) ->
        if List.mem p.Core.Instance.p_name privatized then
          Rat.add acc p.Core.Instance.p_cost
        else acc)
      cost inst.Core.Instance.publics
  in
  subset hidden (List.map fst inst.Core.Instance.attr_costs)
  && List.for_all (fun m -> requirement_met m hidden) inst.Core.Instance.mods
  && List.for_all
       (fun (p : Core.Instance.public_mod) ->
         List.mem p.Core.Instance.p_name privatized
         || not (List.exists (fun a -> List.mem a hidden) p.Core.Instance.p_attrs))
       inst.Core.Instance.publics
  && Rat.equal cost s.Core.Solution.cost
  && Rat.to_string cost = expected

let corpus_memo : (string * string * string list * string list, bool) Hashtbl.t =
  Hashtbl.create 1024

let check_corpus ~expected (ir : Svbench.Corpus.inst_rec) (r : Core.Engine.result) =
  match r.Core.Engine.solution with
  | Some s when r.Core.Engine.proven_optimal -> (
      let key =
        ( ir.Svbench.Corpus.id,
          Rat.to_string s.Core.Solution.cost,
          s.Core.Solution.hidden,
          s.Core.Solution.privatized )
      in
      match Hashtbl.find_opt corpus_memo key with
      | Some ok -> ok
      | None ->
          let ok = corpus_ok ir.Svbench.Corpus.inst ~expected s in
          Hashtbl.replace corpus_memo key ok;
          ok)
  | _ -> false
