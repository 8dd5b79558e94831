(* The four served workloads.  Each is a document, a policy, the users
   logged in at set-up and a stream of cycles; a cycle is one commit
   followed by a few reads.  Everything is drawn from the seed, so a seed
   always yields the same operations in the same order.

   Every rule path is downward, so commits take the incremental
   Perm.update / View.patch / Lazy_view.rebase paths, and writers hold
   every privilege their ops need: no operation is expected to fail. *)

module D = Xmldoc.Document
module G = Workload.Gen_large
module Prng = Workload.Prng

type op =
  | Query of { user : string; text : string }
  | Commit of { user : string; ops : Core.Op.t list }

type t = {
  generate : unit -> D.t;
  policy : Core.Policy.t;
  users : string list;  (** logged in at set-up, writer included *)
  writer : string;
  warmup : int;  (** cycles run before measuring *)
  cycles : D.t -> unit -> op list;
      (** [cycles doc] draws the write targets from the initial document
          [doc], then returns the next cycle on every call *)
}

(* ---------------------------------------------------------------------- *)
(* The Zipf document: read_100k, write_100k, churn_100k                    *)
(* ---------------------------------------------------------------------- *)

let roles = [| "r0"; "r1"; "r2" |]
let readers = List.init 12 (Printf.sprintf "u%d")
let role_of_reader i = roles.(i mod Array.length roles)
let editor = "ed"

(* Three reader roles with different read holes (3 permission classes)
   plus an editor role holding every privilege (a 4th class). *)
let large_policy () =
  let open Core in
  let subjects =
    Subject.of_list
      ([ (Subject.Role, "staff", []); (Subject.Role, "editors", []) ]
       @ List.map (fun r -> (Subject.Role, r, [ "staff" ])) (Array.to_list roles)
       @ ((Subject.User, editor, [ "editors" ])
          :: List.mapi (fun i u -> (Subject.User, u, [ role_of_reader i ])) readers))
  in
  let rule d p path subject priority = Rule.v d p ~path ~subject ~priority in
  Policy.v subjects
    [ rule Rule.Accept Privilege.Read "//node()" "staff" 1;
      rule Rule.Deny Privilege.Read "//e1//node()" "r0" 2;
      rule Rule.Deny Privilege.Read "//e1" "r0" 3;
      rule Rule.Accept Privilege.Position "//e1" "r0" 4;
      rule Rule.Deny Privilege.Read "//e3" "r1" 5;
      rule Rule.Deny Privilege.Read "//e2/e4//node()" "r2" 6;
      rule Rule.Accept Privilege.Position "//e2/e4//node()" "r2" 7;
      rule Rule.Accept Privilege.Read "//node()" "editors" 8;
      rule Rule.Accept Privilege.Update "//node()" "editors" 9;
      rule Rule.Accept Privilege.Insert "//node()" "editors" 10;
      rule Rule.Accept Privilege.Delete "//node()" "editors" 11 ]

(* Wide and shallow: some 550 top-level records of up to five levels.
   Gen_large's default depth of ten yields a handful of giant subtrees,
   so the share of the document a role's rules hide swings from seed to
   seed (11k to 38k visible nodes for r0); here it stays within a few
   percent, and so does the cost of every read. *)
let large_config ~smoke ~seed =
  { G.default with
    G.target_nodes = (if smoke then 2_000 else 100_000);
    max_depth = 5;
    max_children = 8;
    seed }

(* One draw from a stateful seeded generator. *)
let draw rng f =
  let r, x = f !rng in
  rng := r;
  x

(* The read mix over Zipf labels: [//a] and [//a/b] alternate and compile
   to one automaton pass; with [~predicates], every 25th query (4%) is
   [//a[b]], which falls back to per-axis evaluation on the lazy view.
   The kinds follow a fixed pattern rather than a coin, so every run of a
   given length holds the same share of each. *)
let large_reads config rng ~predicates =
  let i = ref 0 in
  fun () ->
    let k = !i in
    incr i;
    let a = draw rng (G.sample_label config) in
    let b = draw rng (G.sample_label config) in
    if predicates && k mod 25 = 12 then Printf.sprintf "//%s[%s]" a b
    else if k mod 2 = 0 then "//" ^ a
    else Printf.sprintf "//%s/%s" a b

(* Policy ops carry precomputed timestamps, above every rule of the
   initial policy and never reused, so both passes commit identical ops. *)
let toggle_rule policy =
  let next = ref (Core.Policy.next_priority policy) in
  let live = ref None in
  fun make ->
    match !live with
    | Some p ->
      live := None;
      [ Core.Op.Policy (Core.Op.Retract_rule { priority = p }) ]
    | None ->
      let p = !next in
      incr next;
      live := Some p;
      [ Core.Op.Policy (Core.Op.Add_rule (make p)) ]

let queries n ~users ~query =
  List.init n (fun _ -> Query { user = users (); text = query () })

let round_robin xs =
  let arr = Array.of_list xs and i = ref 0 in
  fun () ->
    let x = arr.(!i mod Array.length arr) in
    incr i;
    x

(* The three _100k workloads share the document, users and policy, and
   differ in their warm-up and their cycles. *)
let large ~smoke ~seed ~warmup cycles =
  let config = large_config ~smoke ~seed in
  let policy = large_policy () in
  { generate = (fun () -> G.generate config); policy; users = editor :: readers;
    writer = editor; warmup = (if smoke then 1 else warmup);
    cycles = (fun doc -> cycles config policy (ref (Prng.create (seed + 1))) doc) }

(* read_100k: the read side.  Each cycle is 20 reads from the 12 readers
   in turn, after one commit in which the editor adds or retracts one
   fixed rule on its own role: the commit stages, validates, journals and
   re-keys, but no reader's decisions change and the document is not
   re-frozen. *)
let read_100k ~smoke ~seed =
  large ~smoke ~seed ~warmup:2 (fun config policy rng _doc ->
      let toggle = toggle_rule policy in
      let next_reader = round_robin readers in
      let read = large_reads config rng ~predicates:true in
      fun () ->
        Commit
          { user = editor;
            ops =
              toggle (fun priority ->
                  Core.Rule.deny Core.Privilege.Update ~path:"//e5"
                    ~subject:"editors" ~priority) }
        :: queries 20 ~users:next_reader ~query:read)

(* The positional child path of a node, e.g. [/root/*[3]/*[1]]: what a
   client that browsed to the node would send.  Ordpaths never renumber
   and the write stream keeps every element's preceding siblings in
   place, so these paths stay valid for the whole run. *)
let positional_path doc id =
  let rec go id acc =
    match D.parent doc id with
    | None -> acc
    | Some p when p.Xmldoc.Node.kind = Xmldoc.Node.Document ->
      go p.id (("/" ^ Option.get (D.label doc id)) :: acc)
    | Some p ->
      let siblings =
        List.filter
          (fun (n : Xmldoc.Node.t) -> n.kind = Xmldoc.Node.Element)
          (D.children doc p.id)
      in
      let rec index k = function
        | [] -> invalid_arg "positional_path"
        | (n : Xmldoc.Node.t) :: rest ->
          if Ordpath.equal n.id id then k else index (k + 1) rest
      in
      go p.id (Printf.sprintf "/*[%d]" (index 1 siblings) :: acc)
  in
  String.concat "" (go id [])

(* [n] distinct Zipf-drawn elements at depth >= 4 satisfying [keep]. *)
let pick_elements config rng doc ~n ~keep =
  let seen = Hashtbl.create 64 in
  let rec go acc attempts =
    if List.length acc = n || attempts > 10_000 then List.rev acc
    else
      match draw rng (fun g -> G.pick_update_targets config g doc ~count:1) with
      | [ id ] when Ordpath.depth id >= 4 && keep id && not (Hashtbl.mem seen id) ->
        Hashtbl.add seen id ();
        go (id :: acc) (attempts + 1)
      | _ -> go acc (attempts + 1)
  in
  let ids = go [] 0 in
  if List.length ids < n then failwith "workload: too few write targets";
  Array.of_list (List.map (positional_path doc) ids)

(* write_100k: the editor's document commits.  Each commit updates the
   text of one leaf element and either appends a <note/> to a host
   element or removes the note the previous commit appended, so the
   document size stays flat.  Ten compiled reads follow each commit. *)
let write_100k ~smoke ~seed =
  large ~smoke ~seed ~warmup:4 (fun config _policy rng doc ->
      let only_text id =
        match D.children doc id with
        | [ { Xmldoc.Node.kind = Xmldoc.Node.Text; _ } ] -> true
        | _ -> false
      in
      let has_element_child id =
        List.exists
          (fun (n : Xmldoc.Node.t) -> n.kind = Xmldoc.Node.Element)
          (D.children doc id)
      in
      let leaves = pick_elements config rng doc ~n:64 ~keep:only_text in
      let hosts = pick_elements config rng doc ~n:32 ~keep:has_element_child in
      let next_reader = round_robin readers in
      let read = large_reads config rng ~predicates:false in
      let i = ref 0 in
      fun () ->
        let k = !i in
        incr i;
        let host = hosts.(k / 2 mod Array.length hosts) in
        let note =
          if k mod 2 = 0 then
            Xupdate.Op.append host (Xmldoc.Tree.element "note" [])
          else Xupdate.Op.remove (host ^ "/note")
        in
        Commit
          { user = editor;
            ops =
              Core.Op.docs
                [ Xupdate.Op.update leaves.(k mod Array.length leaves)
                    (Printf.sprintf "v%d" k);
                  note ] }
        :: queries 10 ~users:next_reader ~query:read)

(* churn_100k: policy-only commits.  They alternately add and retract a
   deny-read rule on a label for one reader role in rotation; eight reads
   from that role's users follow.  Rules name roles, never users, so
   permission classes never split.  A commit costs more the more nodes its
   label covers, so the labels cycle through fixed Zipf ranks, hot and
   cold interleaved: a seeded draw of the few dozen labels one run commits
   would move the commit percentiles from seed to seed. *)
let churn_ranks = [| 0; 3; 1; 7; 2; 15; 5; 31 |]

let churn_100k ~smoke ~seed =
  large ~smoke ~seed ~warmup:4 (fun config policy rng _doc ->
      let toggle = toggle_rule policy in
      let members =
        Array.map
          (fun role ->
            round_robin
              (List.filteri (fun i _ -> role_of_reader i = role) readers))
          roles
      in
      let read = large_reads config rng ~predicates:false in
      let i = ref 0 in
      fun () ->
        let role = !i / 2 mod Array.length roles in
        let lbl = G.label_of_rank churn_ranks.(!i / 2 mod Array.length churn_ranks) in
        incr i;
        Commit
          { user = editor;
            ops =
              toggle (fun priority ->
                  Core.Rule.deny Core.Privilege.Read ~path:("//" ^ lbl)
                    ~subject:roles.(role) ~priority) }
        :: queries 8 ~users:members.(role) ~query:read)

(* ---------------------------------------------------------------------- *)
(* fanout_1k: the hospital document with one permission class per user    *)
(* ---------------------------------------------------------------------- *)

let hospital_queries =
  [ "//service"; "//diagnosis/node()"; "//visit/date"; "//note";
    "/patients/*/service"; "//visit/note/node()" ]

(* 64 staff users (8 in the smoke run), each hiding one patient's visits
   from themself, so every user is a class of its own and a commit by one
   of them is rebased into every other class. *)
let fanout_1k ~smoke ~seed =
  let config =
    { Workload.Gen_doc.patients = (if smoke then 20 else 120);
      visits_per_patient = 2; diagnosed_fraction = 0.8; seed }
  in
  let users = List.init (if smoke then 8 else 64) (Printf.sprintf "w%d") in
  let patients = Array.of_list (Workload.Gen_doc.patient_names config) in
  let policy =
    let open Core in
    let subjects =
      Subject.of_list
        ((Subject.Role, "staff", [])
         :: List.map (fun u -> (Subject.User, u, [ "staff" ])) users)
    in
    Policy.v subjects
      ([ Rule.accept Privilege.Read ~path:"//node()" ~subject:"staff" ~priority:1;
         Rule.deny Privilege.Read ~path:"//diagnosis/node()" ~subject:"staff"
           ~priority:2;
         Rule.accept Privilege.Position ~path:"//diagnosis/node()"
           ~subject:"staff" ~priority:3;
         Rule.accept Privilege.Update ~path:"//node()" ~subject:"staff"
           ~priority:4 ]
       @ List.mapi
           (fun i u ->
             Rule.deny Privilege.Read
               ~path:(Printf.sprintf "//%s/visit" patients.(i))
               ~subject:u ~priority:(10 + i))
           users)
  in
  let writer = List.hd users in
  let cycles _doc =
    let rng = ref (Prng.create (seed + 1)) in
    let next_reader = round_robin users in
    let i = ref 0 in
    fun () ->
      let k = !i in
      incr i;
      Commit
        { user = writer;
          ops =
            List.init 4 (fun j ->
                Core.Op.doc
                  (Xupdate.Op.update
                     (Printf.sprintf "/patients/*[%d]/service"
                        ((((4 * k) + j) mod Array.length patients) + 1))
                     (Printf.sprintf "svc%d" ((4 * k) + j)))) }
      :: queries 8 ~users:next_reader ~query:(fun () ->
             draw rng (fun g -> Prng.pick g hospital_queries))
  in
  { generate = (fun () -> Workload.Gen_doc.generate config); policy; users; writer;
    warmup = (if smoke then 1 else 200); cycles }

let all =
  [ ("read_100k", read_100k); ("write_100k", write_100k);
    ("churn_100k", churn_100k); ("fanout_1k", fanout_1k) ]

let names = List.map fst all
let find ~smoke ~seed name = (List.assoc name all) ~smoke ~seed
