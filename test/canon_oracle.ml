(* Test oracle: the string/MD5 colour refinement that [Core.Canon]
   replaced with ranked integer colours. Colours here are strings built
   from the name-free payloads and re-hashed with MD5 every round; the
   partition into colour classes is the same at every round as under
   [Core.Canon], so the two forms are equal on the same pairs of
   instances and, on equal forms, exhibit the same attribute bijection.
   The properties in test_serve.ml check exactly that. *)

module Instance = Core.Instance
module Requirement = Core.Requirement
module Solution = Core.Solution

let md5 s = Digest.to_hex (Digest.string s)

let sorted_concat l = String.concat ";" (List.sort compare l)

let card_shape l =
  String.concat ","
    (List.map
       (fun (a, b) -> Printf.sprintf "%d:%d" a b)
       (Requirement.normalize_card l))

let refine (inst : Instance.t) =
  let attrs = Instance.attrs inst in
  let acol : (string, string) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun a ->
      Hashtbl.replace acol a ("a:" ^ Rat.to_string (Instance.attr_cost inst a)))
    attrs;
  let mods = Array.of_list inst.Instance.mods in
  let pubs = Array.of_list inst.Instance.publics in
  let mcol =
    Array.map
      (fun (m : Instance.module_req) ->
        match m.Instance.req with
        | Requirement.Card l -> "m:card:" ^ card_shape l
        | Requirement.Sets l -> Printf.sprintf "m:sets:%d" (List.length l))
      mods
  in
  let pcol =
    Array.map
      (fun (p : Instance.public_mod) -> "p:" ^ Rat.to_string p.Instance.p_cost)
      pubs
  in
  let ac a = Hashtbl.find acol a in
  let distinct () =
    let seen = Hashtbl.create 16 in
    let add c = Hashtbl.replace seen c () in
    Hashtbl.iter (fun _ c -> add c) acol;
    Array.iter add mcol;
    Array.iter add pcol;
    Hashtbl.length seen
  in
  let round () =
    (* Synchronous update: every new color reads only old colors. *)
    let acol' = Hashtbl.create 16 in
    List.iter
      (fun a ->
        let ds = ref [] in
        Array.iteri
          (fun i (m : Instance.module_req) ->
            if List.mem a m.Instance.inputs then ds := ("i" ^ mcol.(i)) :: !ds;
            if List.mem a m.Instance.outputs then ds := ("o" ^ mcol.(i)) :: !ds)
          mods;
        Array.iteri
          (fun j (p : Instance.public_mod) ->
            if List.mem a p.Instance.p_attrs then ds := ("g" ^ pcol.(j)) :: !ds)
          pubs;
        Hashtbl.replace acol' a (md5 (ac a ^ "|" ^ sorted_concat !ds)))
      attrs;
    let mcol' =
      Array.mapi
        (fun i (m : Instance.module_req) ->
          let req =
            match m.Instance.req with
            | Requirement.Card l -> "card:" ^ card_shape l
            | Requirement.Sets l ->
                let opt (ins, outs) =
                  Printf.sprintf "(%s/%s)"
                    (sorted_concat (List.map ac ins))
                    (sorted_concat (List.map ac outs))
                in
                "sets:" ^ sorted_concat (List.map opt l)
          in
          md5
            (Printf.sprintf "%s|%s|I{%s}|O{%s}" mcol.(i) req
               (sorted_concat (List.map ac m.Instance.inputs))
               (sorted_concat (List.map ac m.Instance.outputs))))
        mods
    in
    let pcol' =
      Array.mapi
        (fun j (p : Instance.public_mod) ->
          md5
            (pcol.(j) ^ "|" ^ sorted_concat (List.map ac p.Instance.p_attrs)))
        pubs
    in
    List.iter (fun a -> Hashtbl.replace acol a (Hashtbl.find acol' a)) attrs;
    Array.blit mcol' 0 mcol 0 (Array.length mcol);
    Array.blit pcol' 0 pcol 0 (Array.length pcol)
  in
  let nodes = List.length attrs + Array.length mods + Array.length pubs in
  let rec go k d =
    if k < nodes + 1 then begin
      round ();
      let d' = distinct () in
      if d' > d then go (k + 1) d'
    end
  in
  go 0 (distinct ());
  ac

(* The canonical relabeling behind [form], kept around as a first-class
   value so solutions can be transported across the isomorphism that
   equal forms exhibit (the serve cache's hit path). *)
type labeling = {
  lab_form : string;
  to_canon : (string, string) Hashtbl.t;  (* attribute -> canonical aN *)
  of_canon : (string, string) Hashtbl.t;  (* canonical aN -> attribute *)
  pub_slots : string array;  (* canonical slot -> public module name *)
  pub_slot_of : (string, int) Hashtbl.t;  (* public module name -> slot *)
}

let labeling inst =
  let ac = refine inst in
  (* Relabel attributes by (stable color, original name): the tie-break
     keeps the output deterministic; soundness of [form] equality does
     not depend on it (any relabeling exhibits the isomorphism). Module
     and public lines are name-free, so sorting the serialized lines
     canonicalizes their order directly. *)
  let order =
    List.sort
      (fun a b -> compare (ac a, a) (ac b, b))
      (Instance.attrs inst)
  in
  let to_canon = Hashtbl.create 16 in
  let of_canon = Hashtbl.create 16 in
  List.iteri
    (fun i a ->
      let c = Printf.sprintf "a%d" i in
      Hashtbl.replace to_canon a c;
      Hashtbl.replace of_canon c a)
    order;
  let cn a = Hashtbl.find to_canon a in
  let cns l = List.sort compare (List.map cn l) in
  let b = Buffer.create 256 in
  List.iter
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "%s=%s\n" (cn a) (Rat.to_string (Instance.attr_cost inst a))))
    order;
  let mods =
    List.sort compare
      (List.map
         (fun (m : Instance.module_req) ->
           let req =
             match m.Instance.req with
             | Requirement.Card l -> "card " ^ card_shape l
             | Requirement.Sets l ->
                 let opt (ins, outs) =
                   Printf.sprintf "(%s/%s)"
                     (String.concat "," (cns ins))
                     (String.concat "," (cns outs))
                 in
                 "sets " ^ String.concat " " (List.sort compare (List.map opt l))
           in
           Printf.sprintf "mod I[%s] O[%s] %s\n"
             (String.concat "," (cns m.Instance.inputs))
             (String.concat "," (cns m.Instance.outputs))
             req)
         inst.Instance.mods)
  in
  List.iter (Buffer.add_string b) mods;
  (* Public lines are sorted by their canonical serialization; the name
     tie-break only orders publics whose lines are identical, and such
     publics (same cost, same canonical attribute set) are
     interchangeable, so slot-to-slot matching between equal forms is an
     isomorphism whatever the tie order. *)
  let pub_lines =
    List.sort compare
      (List.map
         (fun (p : Instance.public_mod) ->
           ( Printf.sprintf "pub %s [%s]\n"
               (Rat.to_string p.Instance.p_cost)
               (String.concat "," (cns p.Instance.p_attrs)),
             p.Instance.p_name ))
         inst.Instance.publics)
  in
  List.iter (fun (line, _) -> Buffer.add_string b line) pub_lines;
  let pub_slots = Array.of_list (List.map snd pub_lines) in
  let pub_slot_of = Hashtbl.create 8 in
  Array.iteri (fun i name -> Hashtbl.replace pub_slot_of name i) pub_slots;
  { lab_form = Buffer.contents b; to_canon; of_canon; pub_slots; pub_slot_of }

let form_of_labeling l = l.lab_form

let transport ~src ~dst (s : Solution.t) =
  if not (String.equal src.lab_form dst.lab_form) then None
  else
    let attr a =
      Option.bind (Hashtbl.find_opt src.to_canon a)
        (Hashtbl.find_opt dst.of_canon)
    in
    let pub p =
      Option.bind (Hashtbl.find_opt src.pub_slot_of p) (fun i ->
          if i < Array.length dst.pub_slots then Some dst.pub_slots.(i)
          else None)
    in
    let all f l =
      let mapped = List.filter_map f l in
      if List.length mapped = List.length l then Some mapped else None
    in
    match (all attr s.Solution.hidden, all pub s.Solution.privatized) with
    | Some hidden, Some privatized ->
        (* Cost is preserved by the isomorphism; callers re-verify with
           a [Solution.of_hidden] re-closure anyway. *)
        Some { Solution.hidden; privatized; cost = s.Solution.cost }
    | _ -> None

(* The attribute partition into colour classes: each class sorted by
   name, the classes sorted, so two partitions compare with [=]. *)
let partition inst =
  let ac = refine inst in
  let classes = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let c = ac a in
      Hashtbl.replace classes c
        (a :: Option.value ~default:[] (Hashtbl.find_opt classes c)))
    (Instance.attrs inst);
  List.sort compare
    (Hashtbl.fold (fun _ l acc -> List.sort compare l :: acc) classes [])
