(* Differential suite for the columnar snapshot (Xmldoc.Flat) and the
   streaming parser:

   (a) packed ordpath keys: byte-lexicographic order and string-prefix
       ancestry agree with the component-list definitions;
   (b) freeze/thaw round-trips the map-backed store exactly, including
       after XUpdate churn and a re-freeze;
   (c) every Document axis, the label index and string_value answer
       identically on the snapshot, over seeded random documents and
       off-document probe ids;
   (d) the streaming parser produces node-for-node the snapshot the
       in-memory parser produces — CDATA, references, comments,
       whitespace modes and torn-input errors included;
   (e) the snapshot-backed core paths (Perm.compute/update, View.derive,
       Session, Rewrite.select) answer exactly as the node-map references
       (the per-rule loop, axioms 15-17 derived on the map, and staged
       maintenance).

   Failures shrink to a minimal document/policy via test/support. *)

open Xmldoc
module D = Document
module F = Flat
module Op = Xupdate.Op
module Prng = Workload.Prng

let base_seed = 20260808

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                   *)
(* ------------------------------------------------------------------ *)

let kind_letter = function
  | Node.Document -> 'D'
  | Node.Element -> 'E'
  | Node.Attribute -> 'A'
  | Node.Text -> 'T'
  | Node.Comment -> 'C'

let render_node (n : Node.t) =
  Printf.sprintf "%c:%s:%s" (kind_letter n.kind) (Ordpath.to_string n.id)
    n.label

let render_nodes ns = String.concat "; " (List.map render_node ns)

let same_nodes a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Node.t) (y : Node.t) ->
         Ordpath.equal x.id y.id && x.kind = y.kind
         && String.equal x.label y.label)
       a b

(* ------------------------------------------------------------------ *)
(* (a) packed keys                                                     *)
(* ------------------------------------------------------------------ *)

(* Well-formed labels: each level is zero or more even components
   followed by exactly one odd component (negative values included, since
   careting can go left of 1). *)
let random_components rng =
  let rng, levels = Prng.int rng 5 in
  let component rng ~odd =
    let rng, magnitude = Prng.int rng 3 in
    let bound = [| 4; 300; 100_000 |].(magnitude) in
    let rng, v = Prng.int rng (2 * bound) in
    let v = v - bound in
    (rng, if odd then (2 * v) + 1 else 2 * v)
  in
  let level rng acc =
    let rng, evens = Prng.int rng 3 in
    let rec go rng acc i =
      if i = 0 then (rng, acc)
      else
        let rng, e = component rng ~odd:false in
        go rng (e :: acc) (i - 1)
    in
    let rng, acc = go rng acc evens in
    let rng, o = component rng ~odd:true in
    (rng, o :: acc)
  in
  let rec go rng acc i =
    if i = 0 then (rng, List.rev acc)
    else
      let rng, acc = level rng acc in
      go rng acc (i - 1)
  in
  go rng [] levels

let rec is_list_prefix p t =
  match (p, t) with
  | [], _ -> true
  | _, [] -> false
  | x :: p', y :: t' -> x = y && is_list_prefix p' t'

let test_packed_keys () =
  let rng = ref (Prng.create base_seed) in
  let draw () =
    let r, cs = random_components !rng in
    rng := r;
    cs
  in
  for _ = 1 to 2000 do
    let a = draw () and b = draw () in
    let pa = Ordpath.of_components a and pb = Ordpath.of_components b in
    let ka = Ordpath.pack pa and kb = Ordpath.pack pb in
    (* Round-trip. *)
    Alcotest.(check string)
      (Printf.sprintf "unpack (pack %s)" (Ordpath.to_string pa))
      (Ordpath.to_string pa)
      (Ordpath.to_string (Ordpath.unpack ka));
    (* Order preservation. *)
    let sign x = compare x 0 in
    Alcotest.(check int)
      (Printf.sprintf "compare_packed %s %s" (Ordpath.to_string pa)
         (Ordpath.to_string pb))
      (sign (Ordpath.compare pa pb))
      (sign (Ordpath.compare_packed ka kb));
    (* Prefix = ancestry (self included). *)
    Alcotest.(check bool)
      (Printf.sprintf "is_packed_prefix %s %s" (Ordpath.to_string pa)
         (Ordpath.to_string pb))
      (is_list_prefix a b)
      (Ordpath.is_packed_prefix ka kb)
  done;
  (* The document node packs to the empty key, a prefix of everything. *)
  Alcotest.(check string) "document key" ""
    (Ordpath.pack Ordpath.document)

(* ------------------------------------------------------------------ *)
(* Random documents and churn                                          *)
(* ------------------------------------------------------------------ *)

let random_doc seed =
  let rng = Prng.create seed in
  let rng, patients = Prng.int rng 6 in
  let rng, visits = Prng.int rng 4 in
  ignore rng;
  Workload.Gen_doc.generate
    {
      Workload.Gen_doc.patients = patients + 1;
      visits_per_patient = visits;
      diagnosed_fraction = 0.7;
      seed;
    }

let churn_paths =
  [
    "/patients"; "/patients/*"; "//service"; "//diagnosis"; "//visit";
    "//note"; "//date"; "/patients/*[1]"; "//diagnosis/text()";
  ]

let fragments =
  [
    Tree.element "extra" [ Tree.text "note" ];
    Tree.text "addendum";
    Tree.element "audit"
      [ Tree.attr "by" "harness"; Tree.element "stamp" [ Tree.text "t0" ] ];
  ]

let random_op rng =
  let rng, path = Prng.pick rng churn_paths in
  let rng, kind = Prng.int rng 6 in
  match kind with
  | 0 -> (rng, Op.rename path "renamed")
  | 1 -> (rng, Op.update path "updated")
  | 2 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.append path tree)
  | 3 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_before path tree)
  | 4 ->
    let rng, tree = Prng.pick rng fragments in
    (rng, Op.insert_after path tree)
  | _ -> (rng, Op.remove path)

(* A few document-order XUpdate steps; ops whose paths select nothing are
   skipped (the churn is about renumbering/removal patterns, not XPath). *)
let churn seed doc =
  let rec go rng doc i =
    if i = 0 then doc
    else
      let rng, op = random_op rng in
      let doc =
        match Xupdate.Apply.apply doc op with
        | outcome -> outcome.Xupdate.Apply.doc
        | exception _ -> doc
      in
      go rng doc (i - 1)
  in
  go (Prng.create (seed * 31 + 7)) doc 4

(* ------------------------------------------------------------------ *)
(* (b) freeze/thaw                                                     *)
(* ------------------------------------------------------------------ *)

let test_freeze_thaw () =
  for case = 0 to 59 do
    let seed = base_seed + case in
    let doc = random_doc seed in
    let check_roundtrip what doc =
      let fl = F.of_document doc in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: %s size" seed what)
        (D.size doc) (F.size fl);
      if not (D.equal (F.to_document fl) doc) then
        Alcotest.failf "seed %d: %s thaw differs\nfacts: %s" seed what
          (Xml_print.facts doc)
    in
    check_roundtrip "fresh" doc;
    (* Re-freeze after XUpdate churn: fresh identifiers, gaps from
       removals, attribute grafts. *)
    check_roundtrip "churned" (churn seed doc)
  done

(* ------------------------------------------------------------------ *)
(* (c) axis differential                                               *)
(* ------------------------------------------------------------------ *)

let axes :
    (string
    * (D.t -> Ordpath.t -> Node.t list)
    * (F.t -> Ordpath.t -> Node.t list))
    list =
  [
    ("children", D.children, F.children);
    ("attributes", D.attributes, F.attributes);
    ("descendants", D.descendants, F.descendants);
    ("descendant_or_self", D.descendant_or_self, F.descendant_or_self);
    ("ancestors", D.ancestors, F.ancestors);
    ("ancestor_or_self", D.ancestor_or_self, F.ancestor_or_self);
    ("following_siblings", D.following_siblings, F.following_siblings);
    ("preceding_siblings", D.preceding_siblings, F.preceding_siblings);
    ("following", D.following, F.following);
    ("preceding", D.preceding, F.preceding);
  ]

(* Probe ids that are (usually) not in the document: Document's axes have
   defined fallbacks there, and the snapshot must reproduce them. *)
let stray_ids =
  List.map Ordpath.of_components
    [ [ 99 ]; [ 1; 999 ]; [ 2; 1; 7 ]; [ -5 ]; [ 1; 1; 1; 1; 1 ] ]

let compare_all_axes doc =
  let fl = F.of_document doc in
  let ids =
    List.map (fun (n : Node.t) -> n.id) (D.nodes doc) @ stray_ids
  in
  List.iter
    (fun id ->
      List.iter
        (fun (name, on_doc, on_flat) ->
          let d = on_doc doc id and f = on_flat fl id in
          if not (same_nodes d f) then
            failwith
              (Printf.sprintf "%s(%s): doc [%s] / flat [%s]" name
                 (Ordpath.to_string id) (render_nodes d) (render_nodes f)))
        axes;
      let opt what a b =
        let r = function Some n -> render_node n | None -> "-" in
        match (a, b) with
        | Some x, Some y
          when Ordpath.equal x.Node.id y.Node.id
               && String.equal x.Node.label y.Node.label ->
          ()
        | None, None -> ()
        | a, b ->
          failwith
            (Printf.sprintf "%s(%s): doc %s / flat %s" what
               (Ordpath.to_string id) (r a) (r b))
      in
      opt "parent" (D.parent doc id) (F.parent fl id);
      opt "last_child" (D.last_child doc id) (F.last_child fl id);
      if D.mem doc id <> F.mem fl id then
        failwith (Printf.sprintf "mem(%s) disagrees" (Ordpath.to_string id));
      if D.label doc id <> F.label fl id then
        failwith (Printf.sprintf "label(%s) disagrees" (Ordpath.to_string id));
      let sv_doc = D.string_value doc id and sv_flat = F.string_value fl id in
      if not (String.equal sv_doc sv_flat) then
        failwith
          (Printf.sprintf "string_value(%s): doc %S / flat %S"
             (Ordpath.to_string id) sv_doc sv_flat))
    ids;
  (* The label index, for every label present plus a missing one. *)
  let labels =
    List.sort_uniq String.compare
      ("nosuchlabel" :: List.map (fun (n : Node.t) -> n.label) (D.nodes doc))
  in
  List.iter
    (fun l ->
      let d = D.by_label doc l and f = F.by_label fl l in
      if
        not
          (List.length d = List.length f
          && List.for_all2 Ordpath.equal d f)
      then
        failwith
          (Printf.sprintf "by_label %S: doc [%s] / flat [%s]" l
             (String.concat "; " (List.map Ordpath.to_string d))
             (String.concat "; " (List.map Ordpath.to_string f))))
    labels

let test_axes () =
  for case = 0 to 59 do
    let seed = base_seed + case in
    let doc = random_doc seed in
    let run doc =
      compare_all_axes doc;
      compare_all_axes (churn seed doc)
    in
    match run doc with
    | () -> ()
    | exception Failure msg ->
      let fails d = match run d with () -> false | exception _ -> true in
      let doc' = Test_support.Shrink.document ~fails doc in
      let text =
        Printf.sprintf "%s\n--- shrunk repro (seed %d) ---\nfacts: %s" msg
          seed
          (Xml_print.facts doc')
      in
      Test_support.Shrink.save ~name:"flat-axes" ~seed text;
      Alcotest.fail text
  done

(* Document's seeking child axes against the filter-of-descendants
   oracle, on seeded documents (fresh and churned) and on the same
   stores with orphans grafted in: nodes whose parent, or grandparent,
   is missing, under the document node and under real nodes. *)
let with_orphans doc =
  let ids = List.map (fun (n : Node.t) -> n.id) (D.nodes doc) in
  let graft doc cs =
    D.add_node doc (Node.v ~id:(Ordpath.of_components cs) ~kind:Node.Element "orphan")
  in
  List.fold_left
    (fun doc (i, id) ->
      let cs = Ordpath.to_components id in
      if i mod 3 <> 0 then doc
      else
        List.fold_left graft doc
          [ cs @ [ 999; 1 ]; cs @ [ 999; 3; 5 ]; cs @ [ 1001; 1; 1 ]; cs @ [ 2; 2; 1; 7 ] ])
    (graft (graft doc [ 77; 1 ]) [ 77; 3; 1 ])
    (List.mapi (fun i id -> (i, id)) ids)

let check_child_axes doc =
  let probe = List.map (fun (n : Node.t) -> n.id) (D.nodes doc) @ stray_ids in
  List.iter
    (fun id ->
      let axis name got want =
        if not (same_nodes got want) then
          failwith
            (Printf.sprintf "%s(%s): seek [%s] / oracle [%s]" name
               (Ordpath.to_string id) (render_nodes got) (render_nodes want))
      in
      axis "children" (D.children doc id) (Test_support.Doc_oracle.children doc id);
      axis "last_child"
        (Option.to_list (D.last_child doc id))
        (Option.to_list (Test_support.Doc_oracle.last_child doc id));
      axis "following_siblings" (D.following_siblings doc id)
        (Test_support.Doc_oracle.following_siblings doc id);
      axis "preceding_siblings" (D.preceding_siblings doc id)
        (Test_support.Doc_oracle.preceding_siblings doc id))
    probe

let test_child_axes () =
  for case = 0 to 59 do
    let seed = base_seed + case in
    let doc = random_doc seed in
    List.iter
      (fun d ->
        check_child_axes d;
        check_child_axes (with_orphans d))
      [ doc; churn seed doc ]
  done

(* ------------------------------------------------------------------ *)
(* (d) streaming parser ≡ in-memory parser                             *)
(* ------------------------------------------------------------------ *)

let parser_samples =
  [
    "<a/>";
    "<a><b/><c/></a>";
    "<a x=\"1\" y=\"two\"><b z=\"3\"/>tail</a>";
    "<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>";
    "<a><![CDATA[<raw> & not parsed]]></a>";
    "<a>pre<![CDATA[mid]]>post</a>";
    "<a><!-- note --><b/><!-- tail --></a>";
    "<?xml version=\"1.0\"?><!DOCTYPE a><a><b>x</b></a>";
    "<a> <b/> </a>";
    "<a>one<b>two</b>three</a>";
    "<ns:a ns:x=\"v\"><ns:b/></ns:a>";
    "<a><!-- c --></a><!-- trailing -->";
    "<a\n  x=\"multi\n line\"\n>text</a>";
  ]

let option_modes =
  [
    ("defaults", None, None);
    ("keep_comments", Some true, None);
    ("keep whitespace", None, Some false);
    ("keep both", Some true, Some false);
  ]

let flat_equal_exact a b =
  F.size a = F.size b
  && same_nodes (F.nodes a) (F.nodes b)

let with_sample_channel s f =
  let file = Filename.temp_file "test_flat" ".xml" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin file in
      output_string oc s;
      close_out oc;
      let ic = open_in_bin file in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f ic))

let test_streaming_agreement () =
  List.iter
    (fun s ->
      List.iter
        (fun (mode, keep_comments, strip_whitespace) ->
          let reference =
            F.of_document
              (Xml_parse.of_string ?keep_comments ?strip_whitespace s)
          in
          let streamed_string =
            Xml_parse.flat_of_string ?keep_comments ?strip_whitespace s
          in
          let streamed_channel =
            with_sample_channel s
              (Xml_parse.flat_of_channel ?keep_comments ?strip_whitespace)
          in
          let check what streamed =
            if not (flat_equal_exact reference streamed) then
              Alcotest.failf "%s (%s) on %S:\n  reference [%s]\n  streamed [%s]"
                what mode s
                (render_nodes (F.nodes reference))
                (render_nodes (F.nodes streamed))
          in
          check "flat_of_string" streamed_string;
          check "flat_of_channel" streamed_channel)
        option_modes)
    parser_samples

let torn_inputs =
  [
    "";
    "<a>";
    "<a><b></a>";
    "<a x=\"v>";
    "<a>text";
    "<a>&unknown;</a>";
    "<a>&#xZZ;</a>";
    "<a><![CDATA[torn";
    "<a><!-- torn";
    "<a/><b/>";
    "< a/>";
    "<a x=1/>";
    "junk<a/>";
  ]

let test_streaming_errors () =
  let observe parse s =
    match parse s with
    | (_ : F.t) -> "no error"
    | exception Xml_parse.Error { line; column; message } ->
      Printf.sprintf "%d:%d %s" line column message
  in
  List.iter
    (fun s ->
      let in_memory =
        observe (fun s -> F.of_document (Xml_parse.of_string s)) s
      in
      let streamed = observe Xml_parse.flat_of_string s in
      let channel =
        observe (fun s -> with_sample_channel s Xml_parse.flat_of_channel) s
      in
      Alcotest.(check string)
        (Printf.sprintf "torn input %S (string)" s)
        in_memory streamed;
      Alcotest.(check string)
        (Printf.sprintf "torn input %S (channel)" s)
        in_memory channel;
      if String.equal in_memory "no error" then
        Alcotest.failf "torn input %S parsed without error" s)
    torn_inputs

let test_large_generator_streams () =
  let config =
    { Workload.Gen_large.default with target_nodes = 3_000; seed = 11 }
  in
  let doc = Workload.Gen_large.generate config in
  let reference = F.of_document doc in
  Alcotest.(check bool)
    (Printf.sprintf "size %d within 25%% of target" (F.size reference))
    true
    (let n = float_of_int (F.size reference) in
     let t = float_of_int config.target_nodes in
     n >= 0.75 *. t && n <= 1.25 *. t);
  let streamed =
    Xml_parse.flat_of_string (Workload.Gen_large.to_xml_string config)
  in
  if not (flat_equal_exact reference streamed) then
    Alcotest.failf
      "gen_large: streamed snapshot differs (reference %d nodes, streamed %d)"
      (F.size reference) (F.size streamed)

(* ------------------------------------------------------------------ *)
(* (e) flat-backed core paths                                          *)
(* ------------------------------------------------------------------ *)

let random_policy seed =
  let rng = Prng.create (seed + 1_000_000) in
  let rng, rules = Prng.int rng 8 in
  ignore rng;
  Workload.Gen_policy.random
    { Workload.Gen_policy.rules = rules + 4; deny_fraction = 0.3; seed }

let check_core_agreement ~seed doc policy =
  let fl = F.of_document doc in
  let session = Core.Session.login ~flat:fl policy doc ~user:"u" in
  let ids = List.map (fun (n : Node.t) -> n.id) (D.nodes doc) in
  let same_perms what a b ids =
    List.iter
      (fun privilege ->
        List.iter
          (fun id ->
            if a privilege id <> b privilege id then
              failwith
                (Printf.sprintf "%s disagrees on %s for %s" what
                   (Ordpath.to_string id)
                   (Format.asprintf "%a" Core.Privilege.pp privilege)))
          ids)
      Core.Privilege.all
  in
  (* Permissions: the snapshot resolution against the per-rule loop on
     the node map. *)
  same_perms "Perm.compute vs the per-rule loop"
    (Core.Session.holds session)
    (Core.Perm.holds (Core.Perm.compute_per_rule policy doc ~user:"u"))
    ids;
  (* Views: against axioms 15-17 derived on the node map. *)
  let oracle =
    Test_support.View_oracle.derive doc (Core.Session.perm session)
  in
  if not (D.equal (Core.Session.view session) oracle) then
    failwith
      (Printf.sprintf "View.derive differs from the map derivation\n  \
                       snapshot: %s\n  map: %s"
         (Xml_print.facts (Core.Session.view session))
         (Xml_print.facts oracle));
  (* The read path over the snapshot-backed lazy view, against the query
     on the map-derived view. *)
  let vars = Core.Session.user_vars session in
  let lv = Core.Lazy_view.of_session fl session in
  List.iter
    (fun q ->
      let plan = Core.Rewrite.plan_str q in
      let via_lazy =
        List.map Ordpath.to_string (Core.Rewrite.select ~vars plan lv)
      in
      let via_view =
        List.map Ordpath.to_string (Xpath.Eval.select_str ~vars oracle q)
      in
      if via_lazy <> via_view then
        failwith
          (Printf.sprintf
             "Rewrite.select on the lazy view disagrees on %s (%s):\n\
             \  lazy [%s]\n  view [%s]"
             q
             (if Core.Rewrite.compiled plan then "compiled" else "fallback")
             (String.concat "; " via_lazy)
             (String.concat "; " via_view)))
    (Workload.Gen_query.random ~seed ~count:6);
  (* Incremental maintenance: staged on the node map (Secure_update runs
     without a snapshot) against the same delta with a snapshot of the
     new source. *)
  let rng = Prng.create (seed * 13 + 5) in
  let _, op = random_op rng in
  match Core.Secure_update.apply session op with
  | exception _ -> ()
  | staged, report ->
    let source' = Core.Session.source staged in
    let flat' =
      Core.Session.apply_delta
        ~flat:(F.of_document source')
        session source' report.Core.Secure_update.delta
    in
    if not (D.equal (Core.Session.view staged) (Core.Session.view flat')) then
      failwith
        (Printf.sprintf
           "apply_delta ~flat differs after %s\n  staged: %s\n  flat: %s"
           (Format.asprintf "%a" Op.pp op)
           (Xml_print.facts (Core.Session.view staged))
           (Xml_print.facts (Core.Session.view flat')));
    same_perms "Perm.update ~flat vs staged"
      (Core.Session.holds staged) (Core.Session.holds flat')
      (List.map (fun (n : Node.t) -> n.id) (D.nodes source'))

let test_core_wiring () =
  for case = 0 to 39 do
    let seed = base_seed + case in
    let doc = random_doc seed in
    let policy = random_policy seed in
    match check_core_agreement ~seed doc policy with
    | () -> ()
    | exception Failure msg ->
      let still_fails doc policy =
        match check_core_agreement ~seed doc policy with
        | () -> false
        | exception _ -> true
      in
      let doc' =
        Test_support.Shrink.document
          ~fails:(fun d -> still_fails d policy)
          doc
      in
      let policy' =
        Test_support.Shrink.policy ~fails:(still_fails doc') policy
      in
      let text =
        Test_support.Shrink.render ~seed ~doc:doc' ~policy:policy' msg
      in
      Test_support.Shrink.save ~name:"flat-core" ~seed text;
      Alcotest.fail text
  done

(* ------------------------------------------------------------------ *)
(* (f) spliced snapshots ≡ fresh freezes                               *)
(* ------------------------------------------------------------------ *)

(* XMLSECU_SPLICE_SEED overrides the splice suite's seed base, so CI can
   sweep extra seeds without recompiling. *)
let splice_seed =
  match Sys.getenv_opt "XMLSECU_SPLICE_SEED" with
  | Some s -> Option.value ~default:base_seed (int_of_string_opt (String.trim s))
  | None -> base_seed

let check_same_snapshot = Test_support.Snapshot_check.check

let splice_paths =
  churn_paths
  @ [ "/patients/*[1]/*[1]"; "//visit/*[last()]"; "//visit/*[1]"; "/";
      "//extra"; "//audit/@by"; "//stamp/text()"; "/patients/*[last()]" ]

let splice_fragments = fragments @ [ Tree.element "extra" [] ]

let random_splice_op rng =
  let rng, path = Prng.pick rng splice_paths in
  let rng, kind = Prng.int rng 6 in
  let rng, tree = Prng.pick rng splice_fragments in
  let rng, label = Prng.pick rng [ "renamed"; "extra"; "note"; "visit" ] in
  match kind with
  | 0 -> (rng, Op.rename path label)
  | 1 -> (rng, Op.update path label)
  | 2 -> (rng, Op.append path tree)
  | 3 -> (rng, Op.insert_before path tree)
  | 4 -> (rng, Op.insert_after path tree)
  | _ -> (rng, Op.remove path)

(* One batch of one to three ops; the roots are the union of each op's
   affected roots, as Txn merges the per-op deltas. *)
let apply_batch rng doc =
  let rng, ops = Prng.int rng 3 in
  let rec go rng doc roots i =
    if i = 0 then (rng, doc, roots)
    else
      let rng, op = random_splice_op rng in
      match Xupdate.Apply.apply doc op with
      | o -> go rng o.Xupdate.Apply.doc (Xupdate.Apply.affected_roots o @ roots) (i - 1)
      | exception _ -> go rng doc roots (i - 1)
  in
  go rng doc [] (ops + 1)

let test_splice_churn () =
  for case = 0 to 59 do
    let seed = splice_seed + case in
    let rng = ref (Prng.create (seed * 17 + 3)) in
    let doc = ref (random_doc seed) in
    let fl = ref (F.of_document !doc) in
    for step = 1 to 40 do
      let rng', doc', roots = apply_batch !rng !doc in
      rng := rng';
      let spliced = F.splice !fl doc' ~roots in
      check_same_snapshot
        (Printf.sprintf "seed %d step %d (roots %s)" seed step
           (String.concat ", " (List.map Ordpath.to_string roots)))
        doc' ~expected:(F.of_document doc') ~got:spliced;
      doc := doc';
      fl := spliced
    done
  done

(* The cases the random stream may hit rarely, one by one. *)
let test_splice_cases () =
  let doc = ref (Workload.Gen_doc.generate
                   { Workload.Gen_doc.patients = 3; visits_per_patient = 2;
                     diagnosed_fraction = 1.0; seed = 5 }) in
  let fl = ref (F.of_document !doc) in
  let step what ops =
    let doc', roots =
      List.fold_left
        (fun (d, roots) op ->
          let o = Xupdate.Apply.apply d op in
          if o.Xupdate.Apply.targets = [] then failwith (what ^ ": selects nothing");
          (o.Xupdate.Apply.doc, Xupdate.Apply.affected_roots o @ roots))
        (!doc, []) ops
    in
    if roots = [] then failwith (what ^ ": changes nothing");
    let spliced = F.splice !fl doc' ~roots in
    check_same_snapshot what doc' ~expected:(F.of_document doc') ~got:spliced;
    doc := doc';
    fl := spliced
  in
  step "insert before a first child"
    [ Op.insert_before "/patients/*[1]/*[1]" (Tree.element "first" []) ];
  step "remove a last child" [ Op.remove "/patients/*[2]/*[last()]" ];
  step "remove an only child" [ Op.remove "/patients/*[1]/service/text()" ];
  step "append a fresh label" [ Op.append "/patients/*[3]" (Tree.element "fresh" []) ];
  step "remove its only carrier" [ Op.remove "//fresh" ];
  Alcotest.(check (array int)) "dead label has no postings" [||]
    (F.by_label_ix !fl "fresh");
  step "re-allocate the dead label"
    [ Op.append "/patients/*[1]" (Tree.element "fresh" [ Tree.text "again" ]) ];
  step "document-level insert before the root"
    [ Op.insert_before "/patients" (Tree.comment "lead") ];
  step "document-level append" [ Op.append "/" (Tree.element "trailer" []) ];
  step "document-level removal" [ Op.remove "/trailer" ];
  step "multi-root batch"
    [ Op.rename "/patients/*[1]" "p1"; Op.remove "/patients/*[2]/*[1]";
      Op.append "/patients/*[3]" (Tree.element "tail" [ Tree.text "t" ]);
      Op.insert_after "/patients/*[3]" (Tree.element "sibling" []) ];
  step "one op, many roots" [ Op.remove "//visit" ]

(* A pool full of dead labels falls back to a fresh freeze. *)
let test_splice_dead_labels () =
  let doc = ref (D.of_tree (Tree.element "r" [ Tree.element "x" [ Tree.text "t0" ] ])) in
  let fl = ref (F.of_document !doc) in
  for k = 1 to 200 do
    let o = Xupdate.Apply.apply !doc (Op.update "/r/x" (Printf.sprintf "t%d" k)) in
    let spliced = F.splice !fl o.Xupdate.Apply.doc ~roots:(Xupdate.Apply.affected_roots o) in
    check_same_snapshot (Printf.sprintf "relabel %d" k) o.Xupdate.Apply.doc
      ~expected:(F.of_document o.Xupdate.Apply.doc) ~got:spliced;
    if F.pool_size spliced > (2 * 4) + 64 then
      Alcotest.failf "relabel %d: pool of %d labels for 4 live ones" k
        (F.pool_size spliced);
    doc := o.Xupdate.Apply.doc;
    fl := spliced
  done

(* The epoch-publishing server: flat-backed logins and broadcasts must
   serve the same views as fresh logins (reuses the freshness
   oracle of test_differential at the Serve level), and every published
   snapshot — spliced along each commit's delta — must equal a fresh
   freeze of the published source. *)
let test_serve_epochs () =
  let module P = Core.Paper_example in
  let serve = Core.Serve.create P.policy (P.document ()) in
  List.iter
    (fun user -> Core.Serve.login serve ~user)
    [ P.beaufort; P.laporte; P.richard; P.robert ];
  let assert_fresh what =
    Test_support.Snapshot_check.check_served what serve;
    List.iter
      (fun user ->
        let fresh =
          Core.Session.login (Core.Serve.policy serve)
            (Core.Serve.source serve) ~user
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s's served view = fresh login view" user)
          true
          (D.equal (Core.Serve.view serve ~user) (Core.Session.view fresh)))
      (Core.Serve.users serve)
  in
  assert_fresh "start";
  let report =
    Core.Serve.update serve ~user:P.laporte
      (Op.update "/patients/franck/diagnosis" "cured")
  in
  Alcotest.(check bool) "update fully applied" true
    (Core.Secure_update.fully_applied report);
  assert_fresh "update";
  ignore
    (Core.Serve.update serve ~user:P.beaufort
       (Op.rename "/patients/robert" "r2"));
  assert_fresh "rename";
  Alcotest.(check int) "doctor sees the rename through the new epoch" 1
    (List.length (Core.Serve.query serve ~user:P.laporte "/patients/r2"));
  ignore
    (Core.Serve.update_all serve ~user:P.beaufort
       [ Op.append "/patients" (Tree.element "zoe" [ Tree.element "service" [] ]);
         Op.insert_before "/patients/*[1]" (Tree.element "ann" []) ]);
  assert_fresh "multi-root batch";
  ignore
    (Core.Serve.update serve ~user:P.laporte
       (Op.remove "/patients/franck/diagnosis/node()"));
  assert_fresh "removal"

let published serve ~user = Core.Lazy_view.flat (Core.Serve.lazy_view serve ~user)

(* With one writer at a time, every commit is staged on the published
   document and splices the published snapshot.  A commit issued from an
   event tap inside another commit, on the same thread, is refused by the
   writer mutex (OCaml's [Mutex.lock] raises [Sys_error] for its owner)
   and leaves the outer commit whole.  A spliced snapshot shares the node
   records of the rows it copied — the document node's included — while a
   fresh freeze allocates them all. *)
let test_serve_splices () =
  let module P = Core.Paper_example in
  let serve = Core.Serve.create P.policy (P.document ()) in
  List.iter (fun user -> Core.Serve.login serve ~user) [ P.laporte; P.beaufort ];
  let spliced ~before ~after = F.node after 0 == F.node before 0 in
  let before = published serve ~user:P.laporte in
  ignore (Core.Serve.update serve ~user:P.beaufort (Op.rename "/patients/robert" "r2"));
  Test_support.Snapshot_check.check_served "plain commit" serve;
  Alcotest.(check bool) "a commit on the published document splices" true
    (spliced ~before ~after:(published serve ~user:P.laporte));
  let nested = ref None in
  let was_enabled = Obs.Events.enabled () in
  Obs.Events.set_enabled true;
  Obs.Events.set_tap ~name:"test_flat.nested"
    (Some
       (fun e ->
         match e.Obs.Events.kind with
         | Obs.Events.Commit _ when !nested = None ->
           nested :=
             Some
               (match
                  Core.Serve.update serve ~user:P.beaufort
                    (Op.rename "/patients/r2" "r3")
                with
                | _ -> false
                | exception Sys_error _ -> true)
         | _ -> ()));
  Fun.protect
    ~finally:(fun () ->
      Obs.Events.set_tap ~name:"test_flat.nested" None;
      Obs.Events.set_enabled was_enabled)
    (fun () ->
      ignore
        (Core.Serve.update serve ~user:P.laporte
           (Op.update "/patients/franck/diagnosis" "cured")));
  Alcotest.(check (option bool)) "a commit nested in a commit is refused"
    (Some true) !nested;
  Test_support.Snapshot_check.check_served "around the nested commit" serve;
  Alcotest.(check int) "the outer commit published, the nested one did not" 1
    (List.length
       (Xpath.Eval.select_str (Core.Serve.source serve)
          "/patients/r2[../franck/diagnosis = 'cured']"));
  let final = published serve ~user:P.laporte in
  ignore (Core.Serve.update serve ~user:P.beaufort (Op.rename "/patients/*[2]" "r4"));
  Test_support.Snapshot_check.check_served "after the nested commit" serve;
  Alcotest.(check bool) "the next commit splices again" true
    (spliced ~before:final ~after:(published serve ~user:P.laporte))

let () =
  Alcotest.run "flat"
    [
      ( "packed-keys",
        [ Alcotest.test_case "2000 random ordpaths" `Quick test_packed_keys ]
      );
      ( "freeze-thaw",
        [
          Alcotest.test_case "60 seeded docs, fresh + churned" `Quick
            test_freeze_thaw;
        ] );
      ( "axes",
        [
          Alcotest.test_case "60 seeded docs, all axes + index" `Quick
            test_axes;
          Alcotest.test_case "child axes = descendant-filter oracle, orphans too"
            `Quick test_child_axes;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "samples, all option modes" `Quick
            test_streaming_agreement;
          Alcotest.test_case "torn inputs fail identically" `Quick
            test_streaming_errors;
          Alcotest.test_case "gen_large streams = gen_large builds" `Quick
            test_large_generator_streams;
        ] );
      ( "core",
        [
          Alcotest.test_case "40 seeded cases, flat = map" `Quick
            test_core_wiring;
          Alcotest.test_case "serve publishes consistent epochs" `Quick
            test_serve_epochs;
        ] );
      ( "splice",
        [
          Alcotest.test_case "60 seeded docs x 40 batches, splice = freeze"
            `Quick test_splice_churn;
          Alcotest.test_case "edge cases, splice = freeze" `Quick
            test_splice_cases;
          Alcotest.test_case "dead labels stay bounded" `Quick
            test_splice_dead_labels;
          Alcotest.test_case "commits splice; nesting is refused"
            `Quick test_serve_splices;
        ] );
    ]
