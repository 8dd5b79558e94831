(* Decision store: per privilege, an immutable array of (node id, deciding
   rule) pairs sorted in document order.  The compiled matcher emits
   decisions in exactly that order, so [compute] builds each store in one
   O(n) pass instead of n [Map.add] rebalances; lookups are binary
   searches. *)
(* First index in [from, len) at which [below] turns false ([len] when
   it never does), given that [below] holds on a prefix: an exponential
   probe from [from], then a binary search inside the last step.  A run
   of searches for ascending keys, each starting where the previous one
   ended, costs the log of each gap rather than of the whole array. *)
let gallop ~len ~below from =
  if from >= len || not (below from) then from
  else begin
    let step = ref 1 in
    while from + !step < len && below (from + !step) do
      step := !step lsl 1
    done;
    let lo = ref (from + (!step lsr 1) + 1)
    and hi = ref (min (from + !step) len) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if below mid then lo := mid + 1 else hi := mid
    done;
    !lo
  end

module Dmap = struct
  type 'a t = (Ordpath.t * 'a) array

  let find_opt id (t : 'a t) =
    let rec go lo hi =
      if lo >= hi then None
      else
        let mid = (lo + hi) lsr 1 in
        let k, v = t.(mid) in
        let c = Ordpath.compare id k in
        if c = 0 then Some v else if c < 0 then go lo mid else go (mid + 1) hi
    in
    go 0 (Array.length t)

  (* First index at or after [from] whose key is [>= key]. *)
  let lower_bound (t : 'a t) ~from key =
    gallop ~len:(Array.length t)
      ~below:(fun i -> Ordpath.compare (fst t.(i)) key < 0)
      from

  (* Ascending key order, like [Map.fold]. *)
  let fold f (t : 'a t) init =
    Array.fold_left (fun acc (k, v) -> f k v acc) init t

  (* [rev] is descending (built by prepending an ascending stream). *)
  let of_rev_list rev : 'a t = Array.of_list (List.rev rev)

  (* Merge of ascending unique-key stores; [choose] decides on a key
     present in both.  [b] is typically the small side — a policy
     churn's additions against a document-sized store — so the loop is
     per-[b]-entry: a galloping search (exponential probe from the
     previous hit, then binary search inside the window — additions
     cluster, so successive insertion points are near) locates each key,
     a first pass counts the genuinely new ones, and a second pass
     assembles the exact-size result from wholesale blits of the
     untouched runs of [a].  Key compares thus scale with [lb log gap],
     not [la]. *)
  let merge choose (a : 'a t) (b : 'a t) =
    let la = Array.length a and lb = Array.length b in
    if lb = 0 then a
    else if la = 0 then b
    else begin
      let pos = Array.make lb 0 in
      let dup = Bytes.make lb '\000' in
      let news = ref 0 in
      let i = ref 0 in
      for j = 0 to lb - 1 do
        let p = lower_bound a ~from:!i (fst b.(j)) in
        pos.(j) <- p;
        if p < la && Ordpath.compare (fst a.(p)) (fst b.(j)) = 0 then
          Bytes.set dup j '\001'
        else incr news;
        i := p
      done;
      let out = Array.make (la + !news) a.(0) in
      let i = ref 0 and k = ref 0 in
      for j = 0 to lb - 1 do
        let p = pos.(j) in
        Array.blit a !i out !k (p - !i);
        k := !k + (p - !i);
        i := p;
        let kb, vb = b.(j) in
        if Bytes.get dup j = '\001' then begin
          out.(!k) <- (kb, choose (snd a.(p)) vb);
          i := p + 1
        end
        else out.(!k) <- (kb, vb);
        incr k
      done;
      Array.blit a !i out !k (la - !i);
      out
    end

  (* [splice base roots additions] replaces the entries lying under the
     delta roots with [additions].  In document order the
     descendants-or-self of a root form one contiguous span of the sorted
     array, so with [roots] sorted and disjoint (see {!Delta.of_roots})
     and [additions] ascending with every key under some root, the result
     assembles from a handful of binary searches and array blits — no
     per-entry predicate over the unaffected bulk.  When every span comes
     back entry for entry (same node, physically the same rule) — a
     relabel that moved no decision, a rule re-match that kept every
     winner — [base] itself is the result, and nothing is copied. *)
  let splice (base : 'a t) roots (additions : 'a t) =
    match roots with
    | [] -> base
    | roots ->
      let nb = Array.length base and na = Array.length additions in
      let segs = ref [] in (* (source, offset, length), reversed *)
      let prev = ref 0 and ac = ref 0 in
      let same = ref true in
      List.iter
        (fun root ->
          (* First key >= root: the span start, if the span is non-empty. *)
          let lo = lower_bound base ~from:!prev root in
          let hi = ref lo in
          while
            !hi < nb
            && Ordpath.is_ancestor_or_self ~ancestor:root (fst base.(!hi))
          do
            incr hi
          done;
          if lo > !prev then segs := (base, !prev, lo - !prev) :: !segs;
          let a0 = !ac in
          while
            !ac < na
            && Ordpath.is_ancestor_or_self ~ancestor:root (fst additions.(!ac))
          do
            incr ac
          done;
          if !ac > a0 then segs := (additions, a0, !ac - a0) :: !segs;
          if !same then begin
            let len = !hi - lo in
            same := len = !ac - a0;
            let k = ref 0 in
            while !same && !k < len do
              let kb, vb = base.(lo + !k) and ka, va = additions.(a0 + !k) in
              same := vb == va && Ordpath.equal kb ka;
              incr k
            done
          end;
          prev := !hi)
        roots;
      if nb > !prev then segs := (base, !prev, nb - !prev) :: !segs;
      if !same && !ac = na then base
      else
        match List.rev !segs with
        | [] -> [||]
        | ((first, off, _) :: _) as segs ->
          let total = List.fold_left (fun t (_, _, l) -> t + l) 0 segs in
          let out = Array.make total first.(off) in
          let pos = ref 0 in
          List.iter
            (fun (src, off, len) ->
              Array.blit src off out !pos len;
              pos := !pos + len)
            segs;
          out
end

type t = {
  user : string;
  decisions : Rule.t Dmap.t array;  (* indexed by privilege rank *)
}

let privilege_index = function
  | Privilege.Position -> 0
  | Privilege.Read -> 1
  | Privilege.Insert -> 2
  | Privilege.Update -> 3
  | Privilege.Delete -> 4

(* One compiled traversal hands a node *all* its matching rules at once,
   so the winner per privilege — the highest-priority rule, which under
   unique priorities is exactly the most-recent-wins overwrite of
   axiom 14 — is picked in the small payload list and emitted once.

   The matcher interns each distinct automaton state set once and hands
   every node in that set the *same physical* payload list, so the winner
   computation is cached under physical equality: a handful of distinct
   sets cover the whole document, turning the per-node cost into a short
   [==] scan plus one list prepend per decided privilege. *)
let winners_of rules =
  let best : Rule.t option array = Array.make 5 None in
  List.iter
    (fun (r : Rule.t) ->
      let i = privilege_index r.privilege in
      match best.(i) with
      | Some prev when prev.Rule.priority > r.priority -> ()
      | Some _ | None -> best.(i) <- Some r)
    rules;
  let out = ref [] in
  for i = 4 downto 0 do
    match best.(i) with Some r -> out := (i, r) :: !out | None -> ()
  done;
  !out

(* Per-rule decision telemetry.  [stats_index rules] registers every
   applicable rule with the global registry and returns a priority-keyed
   lookup (priorities are unique within a policy, so the key identifies
   the rule exactly); [None] while recording is disabled, so the hot
   paths below stay allocation-free. *)
let stats_index rules =
  if not (Obs.Rulestats.enabled ()) then None
  else begin
    let tbl = Hashtbl.create (2 * List.length rules + 1) in
    List.iter
      (fun (r : Rule.t) ->
        Hashtbl.replace tbl r.priority
          (Obs.Rulestats.register ~key:r.priority
             ~privilege:(Privilege.to_string r.privilege) ~desc:r.notation))
      rules;
    Some (fun (r : Rule.t) -> Hashtbl.find tbl r.Rule.priority)
  end

(* Decided = present in a final decision store: folding the stores after
   conflict resolution is exact for both the compiled and the fallback
   path (a downward winner later overridden by a fallback rule is not
   counted), unlike counting winners inside the traversal. *)
let count_decided stats (stores : Rule.t Dmap.t array) =
  match stats with
  | None -> ()
  | Some entry_of ->
    Array.iter
      (fun store ->
        Dmap.fold
          (fun _ (r : Rule.t) () -> Obs.Rulestats.add_decided (entry_of r) 1)
          store ())
      stores

(* [node_pusher ~rule_of () acc id payloads] prepends [id]'s winning
   (id, rule) pair onto [acc.(privilege)], among the rules [rule_of] maps
   the payloads to ([None]: the payload's rule does not apply).  Ids
   arrive in ascending document order, so the accumulators are descending
   rev-lists ready for [Dmap.of_rev_list].  A node revisited through
   nested delta roots would emit the same winners; {!Delta.of_roots}
   guarantees disjoint roots, so ids are in fact unique.

   With [?stats], every node also bumps the matched counter of each
   distinct rule in its payload list.  The distinct-rule list is cached
   alongside the winners under the same physical-equality key (the
   matcher hands every node of one state set the same physical list), so
   the per-node telemetry cost is one list walk of already-resolved
   entries — no hashing. *)
let node_pusher ?stats ~rule_of () =
  let cache = ref [] in
  fun (acc : (Ordpath.t * Rule.t) list array) id payloads ->
    let rec lookup = function
      | (key, w) :: _ when key == payloads -> w
      | _ :: rest -> lookup rest
      | [] ->
        let rules = List.filter_map rule_of payloads in
        let entries =
          match stats with
          | None -> []
          | Some entry_of ->
            (* A payload list repeats a rule when several of its paths
               accept the node; matched counts nodes, so dedupe. *)
            let seen = Hashtbl.create 8 in
            List.filter_map
              (fun (r : Rule.t) ->
                if Hashtbl.mem seen r.Rule.priority then None
                else begin
                  Hashtbl.add seen r.Rule.priority ();
                  Some (entry_of r)
                end)
              rules
        in
        let w = (winners_of rules, entries) in
        cache := (payloads, w) :: !cache;
        w
    in
    let winners, entries = lookup !cache in
    List.iter (fun e -> Obs.Rulestats.add_matched e 1) entries;
    List.iter (fun (i, r) -> acc.(i) <- (id, r) :: acc.(i)) winners

let matcher_of_rules rules =
  Xpath.Compile.compile (List.map (fun (r : Rule.t) -> (r, r.Rule.path)) rules)

let partition_rules rules =
  List.partition (fun (r : Rule.t) -> Xpath.Ast.is_downward r.path) rules

(* Priorities are unique, so "highest priority wins" is order-independent —
   which lets downward rules (resolved in one compiled pass) and fallback
   rules (general evaluator) merge in any order. *)
let higher_priority (a : Rule.t) (b : Rule.t) =
  if a.priority >= b.priority then a else b

(* One [Eval.select] per distinct rule path text. *)
let memo_select env =
  let cache : (string, Ordpath.t list) Hashtbl.t = Hashtbl.create 16 in
  fun (r : Rule.t) ->
    match Hashtbl.find_opt cache r.path_src with
    | Some ids -> ids
    | None ->
      let ids = Xpath.Eval.select env r.path in
      Hashtbl.add cache r.path_src ids;
      ids

(* Fallback: evaluate each non-downward rule with the general evaluator
   ($USER bound), sharing selections across rules with identical path
   text, and merge the resulting decisions into [decisions] by rule
   priority. *)
let merge_fallback ?stats fl ~user decisions rules =
  match rules with
  | [] -> decisions
  | rules ->
    let vars = [ ("USER", Xpath.Value.Str user) ] in
    let select =
      memo_select (Xpath.Eval.env_of_source ~vars (Xpath.Source.of_flat fl))
    in
    let extras : (Ordpath.t * Rule.t) list array = Array.make 5 [] in
    List.iter
      (fun (r : Rule.t) ->
        let i = privilege_index r.privilege in
        let ids = select r in
        (match stats with
        | Some entry_of ->
          Obs.Rulestats.add_matched (entry_of r) (List.length ids)
        | None -> ());
        List.iter (fun id -> extras.(i) <- (id, r) :: extras.(i)) ids)
      rules;
    Array.mapi
      (fun i base ->
        match extras.(i) with
        | [] -> base
        | pairs ->
          (* Sort by id, then priority; keep the last (highest-priority)
             entry of each id group. *)
          let sorted =
            List.sort
              (fun (a, (ra : Rule.t)) (b, (rb : Rule.t)) ->
                let c = Ordpath.compare a b in
                if c <> 0 then c else compare ra.priority rb.priority)
              pairs
          in
          let rec dedupe = function
            | (a, _) :: ((b, _) :: _ as rest) when Ordpath.equal a b ->
              dedupe rest
            | x :: rest -> x :: dedupe rest
            | [] -> []
          in
          Dmap.merge higher_priority base (Array.of_list (dedupe sorted)))
      decisions

let compute policy fl ~user =
  let rules = Policy.rules_for policy ~user in
  let stats = stats_index rules in
  let downward, fallback = partition_rules rules in
  let acc : (Ordpath.t * Rule.t) list array = Array.make 5 [] in
  (match downward with
   | [] -> ()
   | downward ->
     let matcher = matcher_of_rules downward in
     let push = node_pusher ?stats ~rule_of:Option.some () in
     let f () (n : Xmldoc.Node.t) rules = push acc n.id rules in
     Xpath.Compile.fold_flat matcher fl ~init:() ~f);
  let decisions =
    merge_fallback ?stats fl ~user (Array.map Dmap.of_rev_list acc) fallback
  in
  count_decided stats decisions;
  { user; decisions }

(* The pre-compilation implementation — one [Eval.select] per applicable
   rule, most-recent-wins overwrite into a map — kept as the
   differential-testing and benchmarking baseline.  Only the final O(n)
   conversion into the sorted-array store differs from the original. *)
let compute_per_rule policy doc ~user =
  let select =
    memo_select (Xpath.Eval.env ~vars:[ ("USER", Xpath.Value.Str user) ] doc)
  in
  let maps = Array.make 5 Ordpath.Map.empty in
  (* Ascending priority: later rules overwrite earlier decisions. *)
  List.iter
    (fun (r : Rule.t) ->
      let i = privilege_index r.privilege in
      List.iter (fun id -> maps.(i) <- Ordpath.Map.add id r maps.(i)) (select r))
    (Policy.rules_for policy ~user);
  let decisions =
    Array.map
      (fun m ->
        Dmap.of_rev_list
          (Ordpath.Map.fold (fun id r acc -> (id, r) :: acc) m []))
      maps
  in
  { user; decisions }

let user t = t.user

let with_user t user = { t with user }

(* Permission-equivalence signature.  Priorities are unique within a
   policy, so the ascending priority list identifies the applicable rule
   list exactly; when no applicable rule mentions [$USER], every
   selection — and hence every decision store [compute] builds — is
   independent of the user name.  Users whose rules do mention [$USER]
   get their name appended, making them singleton classes (their
   decisions genuinely depend on who is asking). *)
let profile policy ~user =
  let rules = Policy.rules_for policy ~user in
  let b = Buffer.create 64 in
  List.iter
    (fun (r : Rule.t) ->
      Buffer.add_string b (string_of_int r.priority);
      Buffer.add_char b ';')
    rules;
  if List.exists Rule.uses_user_variable rules then begin
    Buffer.add_char b '$';
    Buffer.add_string b user
  end;
  Buffer.contents b

(* Delta-aware re-resolution: with downward rule paths, a node's selection
   depends only on its ancestor chain, so decisions outside the affected
   range are still valid on the new document.  Inside the range, stale
   entries (relabelled or removed nodes) are dropped and each affected
   subtree is re-matched in one compiled sub-traversal that re-threads the
   automaton state down the root's ancestor chain.  {!Delta.of_roots}
   yields disjoint roots in document order, so the re-matched stream is
   itself ascending and replaces the affected spans of the sorted stores
   by splicing.  A broadcast matches once for every class instead
   ([match_delta]), and each class picks from that match. *)

(* The subtrees rooted at [roots] as row ranges of [fl]: one shared
   range run covers them all — {!Delta.of_roots} yields them disjoint
   and ascending, which is exactly the range fold's contract.  Roots the
   snapshot lacks (removed nodes) have no rows. *)
let ranges_of fl roots =
  List.filter_map
    (fun root ->
      Option.map
        (fun ix -> (ix, Xmldoc.Flat.subtree_end fl ix))
        (Xmldoc.Flat.find_ix fl root))
    roots

(* The winners [acc] collected under the roots replace the entries there
   in the [touched] stores; the other stores are returned as they are. *)
let splice_winners ?stats t ~touched roots acc =
  let additions = Array.map Dmap.of_rev_list acc in
  (* Decided over the re-resolved spans only — the unaffected bulk
     was already counted when its decisions were first computed. *)
  count_decided stats additions;
  let decisions =
    Array.mapi
      (fun i base ->
        if touched.(i) then Dmap.splice base roots additions.(i) else base)
      t.decisions
  in
  { t with decisions }

(* Shared tail of the two incremental paths: re-match the given rules
   over exactly the subtrees rooted at [roots] (one compiled
   sub-traversal per root, re-threading the automaton state down the
   root's ancestor chain) and splice the resulting spans into the sorted
   stores of the [touched] privileges; the other stores are returned as
   they are.  Sound whenever every rule path is downward, [rules] holds
   every applicable rule of the touched privileges, and their decisions
   outside [roots] are unchanged — the callers establish that.  Without
   a snapshot the sub-traversals run on the node map: the staging path,
   whose staged document has not been frozen. *)
let resplice ?flat t ~touched rules doc roots =
  let stats = stats_index rules in
  let acc : (Ordpath.t * Rule.t) list array = Array.make 5 [] in
  (match rules with
   | [] -> ()
   | rules -> (
     let matcher = matcher_of_rules rules in
     let push = node_pusher ?stats ~rule_of:Option.some () in
     let f () (n : Xmldoc.Node.t) rules = push acc n.id rules in
     match flat with
     | Some fl ->
       Xpath.Compile.fold_ranges_flat matcher fl ~ranges:(ranges_of fl roots)
         ~init:() ~f
     | None ->
       List.iter
         (fun root ->
           Xpath.Compile.fold_subtree matcher doc ~root ~init:() ~f)
         roots));
  splice_winners ?stats t ~touched roots acc

(* A full recompute runs on a snapshot; a staged document that has none
   is frozen for it. *)
let recompute ?flat policy doc ~user =
  let fl =
    match flat with Some fl -> fl | None -> Xmldoc.Flat.of_document doc
  in
  compute policy fl ~user

(* One commit's delta matched once for every class: the rows of the
   delta's subtrees that some downward rule of the policy selects, in
   document order, each with the positions of the rules selecting it.  A
   row's position list is the automaton's payload list for its state
   set, so rows of one state set share it physically — what a class's
   [node_pusher] caches its picks under. *)
type matched = { index : Policy.index; rows : (Ordpath.t * int list) list }

let match_delta index fl roots =
  Obs.Trace.with_span "perm.match_delta" @@ fun () ->
  let rows =
    match Policy.matcher index with
    | None -> []
    | Some matcher ->
      let f rows (n : Xmldoc.Node.t) payloads = (n.id, payloads) :: rows in
      List.rev
        (Xpath.Compile.fold_ranges_shared matcher fl
           ~ranges:(ranges_of fl roots) ~init:[] ~f)
  in
  { index; rows }

(* A class's share of the commit's match: its applicable rules are
   exactly the positions its bitset holds, so the rows filtered by the
   bitset are what matching its own rules would have yielded, matched
   counts included. *)
let pick_matched t policy m applicable roots =
  let stats =
    if Obs.Rulestats.enabled () then
      stats_index (Policy.rules_for policy ~user:t.user)
    else None
  in
  let acc : (Ordpath.t * Rule.t) list array = Array.make 5 [] in
  let rule_of i =
    if Policy.mem applicable i then Some (Policy.rule_at m.index i) else None
  in
  let push = node_pusher ?stats ~rule_of () in
  List.iter (fun (id, payloads) -> push acc id payloads) m.rows;
  splice_winners ?stats t ~touched:(Array.make 5 true) roots acc

let update ?flat ?matched t policy doc delta =
  match delta with
  | Delta.All -> recompute ?flat policy doc ~user:t.user
  | Delta.Local [] -> t
  | Delta.Local roots -> (
    match matched with
    | Some m when Policy.indexed m.index == policy ->
      let applicable = Policy.applicable m.index ~user:t.user in
      if Policy.local applicable then pick_matched t policy m applicable roots
      else recompute ?flat policy doc ~user:t.user
    | Some _ | None ->
      let rules = Policy.rules_for policy ~user:t.user in
      if not (Delta.local_rules rules) then
        recompute ?flat policy doc ~user:t.user
      else resplice ?flat t ~touched:(Array.make 5 true) rules doc roots)

(* Incremental re-resolution under policy churn: the document is
   unchanged, the applicable rule list is not.  A decision can only
   change where (a) an added/changed rule now matches — those nodes come
   from evaluating just the changed paths — or (b) a removed/changed
   rule used to decide — those nodes are read off the existing stores.
   Everything else keeps its winner: unchanged rules select the same
   nodes on the same document, and the most-recent-wins resolution at an
   unaffected node ranges over an unchanged applicable set.  The union
   of (a) and (b), widened to disjoint subtree roots, is then re-matched
   with exactly the {!update} machinery, so a one-rule churn costs one
   path evaluation plus a few subtree re-matches instead of a full
   {!compute} pass. *)
let update_policy ?flat t ~old_policy policy doc =
  if old_policy == policy then (t, Delta.empty)
  else begin
    let user = t.user in
    let old_rules = Policy.rules_for old_policy ~user in
    let new_rules = Policy.rules_for policy ~user in
    let unchanged =
      List.length old_rules = List.length new_rules
      && List.for_all2 Rule.equal old_rules new_rules
    in
    if unchanged then (t, Delta.empty)
    else if not (Delta.local_rules new_rules) then
      (recompute ?flat policy doc ~user, Delta.all)
    else begin
      let module IM = Map.Make (Int) in
      let index rules =
        List.fold_left
          (fun m (r : Rule.t) -> IM.add r.priority r m)
          IM.empty rules
      in
      let om = index old_rules and nm = index new_rules in
      let changed other (r : Rule.t) =
        match IM.find_opt r.priority other with
        | Some r' -> not (Rule.equal r r')
        | None -> true
      in
      let added = List.filter (changed om) new_rules in
      let removed = List.filter (changed nm) old_rules in
      (* (a) nodes the added/changed rules now select — one compiled
         pass over just the changed paths (they are downward, or the
         [local_rules] guard above would have sent us to [compute]),
         emitting per-privilege winners among the added rules in
         document order. *)
      let select_added ?stats () =
        let matcher = matcher_of_rules added in
        let acc : (Ordpath.t * Rule.t) list array = Array.make 5 [] in
        let ids = ref [] in
        let f push () (n : Xmldoc.Node.t) rules =
          ids := n.id :: !ids;
          push acc n.id rules
        in
        let f = f (node_pusher ?stats ~rule_of:Option.some ()) in
        (match flat with
         | Some fl -> (
           (* The added paths usually name rare labels: the label index
              then bounds the selection to a few rows or subtrees, under
              the same cost rule as an anchored read. *)
           match Xpath.Compile.anchor matcher fl with
           | Some a when Xpath.Compile.anchor_pays fl a ->
             Xpath.Compile.fold_ranges_flat matcher fl
               ~ranges:(Xpath.Compile.anchor_ranges fl a) ~init:() ~f
           | Some _ | None -> Xpath.Compile.fold_flat matcher fl ~init:() ~f)
         | None -> Xpath.Compile.fold matcher doc ~init:() ~f);
        (Array.map Dmap.of_rev_list acc, List.rev !ids)
      in
      if removed = [] then begin
        (* Pure addition: nothing previously decided needs a runner-up,
           so the new winners merge straight into the sorted stores —
           an added rule overrides exactly where its timestamp is the
           most recent (axiom 14), everywhere else the standing winner
           survives the [higher_priority] merge.  No subtree
           re-matching at all. *)
        let stats = stats_index added in
        let additions, added_ids = select_added ?stats () in
        let decisions =
          Array.map2 (Dmap.merge higher_priority) t.decisions additions
        in
        (* Decided = the added-rule wins that survived the merge. *)
        (match stats with
         | None -> ()
         | Some entry_of ->
           Array.iteri
             (fun i additions ->
               Dmap.fold
                 (fun id (r : Rule.t) () ->
                   match Dmap.find_opt id decisions.(i) with
                   | Some w when w.Rule.priority = r.Rule.priority ->
                     Obs.Rulestats.add_decided (entry_of r) 1
                   | _ -> ())
                 additions ())
             additions);
        ({ t with decisions }, Delta.of_roots added_ids)
      end
      else begin
        (* Axiom 14 resolves each privilege from that privilege's rules
           alone, so only the stores of the added and removed rules'
           privileges can change: only their rules are re-matched, and
           the other stores come back physically unchanged. *)
        let of_privileges rules =
          let on = Array.make 5 false in
          List.iter
            (fun (r : Rule.t) -> on.(privilege_index r.privilege) <- true)
            rules;
          on
        in
        let touched = of_privileges (added @ removed) in
        let added_ids =
          if added = [] then [] else snd (select_added ())
        in
        (* (b) nodes the removed/changed rules currently decide, read off
           the stores of their privileges *)
        let removed_prios =
          List.fold_left
            (fun m (r : Rule.t) -> IM.add r.priority () m)
            IM.empty removed
        in
        let removed_in = of_privileges removed in
        let removed_ids = ref [] in
        Array.iteri
          (fun i store ->
            if removed_in.(i) then
              removed_ids :=
                Dmap.fold
                  (fun id (r : Rule.t) acc ->
                    if IM.mem r.priority removed_prios then id :: acc
                    else acc)
                  store !removed_ids)
          t.decisions;
        let rules =
          List.filter
            (fun (r : Rule.t) -> touched.(privilege_index r.privilege))
            new_rules
        in
        match Delta.of_roots (List.rev_append !removed_ids added_ids) with
        | Delta.Local [] -> (t, Delta.empty)
        | Delta.Local roots as delta ->
          (resplice ?flat t ~touched rules doc roots, delta)
        | Delta.All ->
          (* A rule on the document node: every node is re-matched. *)
          ( resplice ?flat t ~touched rules doc [ Ordpath.document ],
            Delta.all )
      end
    end
  end

let deciding_rule t privilege id =
  Dmap.find_opt id t.decisions.(privilege_index privilege)

let decisions t privilege =
  Array.to_list t.decisions.(privilege_index privilege)

let holds t privilege id =
  match deciding_rule t privilege id with
  | Some r -> r.Rule.decision = Rule.Accept
  | None -> false

(* Visibility of the rows [lo, hi) of a frozen snapshot, one byte per
   flat index: 0 hidden, 1 visible with its source label, 2 visible as
   RESTRICTED (position-only) — axioms 15-17 in array form.  The decision
   stores are sorted in document order, which is exactly flat index
   order, so instead of a binary search per node one cursor per store
   (read, position) moves forward through it, galloping from where the
   previous range left it: ascending ranges cost their rows plus the log
   of each gap, no ordpath hashing.  Parents precede children in index
   order, so the top-down "parent selected" premise reads the byte
   already written at [parent_ix] — inside the range, or outside it when
   the caller has already filled that row. *)
let fill_visibility t fl vis (ri, pi) lo hi =
  let module F = Xmldoc.Flat in
  let read = t.decisions.(privilege_index Privilege.Read) in
  let pos = t.decisions.(privilege_index Privilege.Position) in
  if lo < hi && lo > 0 then begin
    let id = F.id fl lo in
    ri := Dmap.lower_bound read ~from:!ri id;
    pi := Dmap.lower_bound pos ~from:!pi id
  end;
  let accepts (store : Rule.t Dmap.t) ptr id =
    let len = Array.length store in
    let rec at () =
      if !ptr >= len then false
      else
        let c = Ordpath.compare (fst store.(!ptr)) id in
        if c < 0 then begin
          incr ptr;
          at ()
        end
        else c = 0
    in
    at () && (snd store.(!ptr)).Rule.decision = Rule.Accept
  in
  for i = lo to hi - 1 do
    let p = F.parent_ix fl i in
    Bytes.unsafe_set vis i
      (if p < 0 then '\001' (* the document node: axiom 15 *)
       else if Bytes.unsafe_get vis p = '\000' then '\000'
       else
         let id = F.id fl i in
         if accepts read ri id then '\001'
         else if accepts pos pi id then '\002'
         else '\000')
  done

let flat_visibility t fl =
  Obs.Trace.with_span "perm.flat_visibility" @@ fun () ->
  let n = Xmldoc.Flat.size fl in
  let vis = Bytes.create n in
  fill_visibility t fl vis (ref 0, ref 0) 0 n;
  vis

(* A patch runs inside a commit ([Lazy_view.rebase]).  It costs the rows
   it recomputes plus four short searches per delta root, which take as
   long as some 64 rows of a full build (measured on a 10^5-node Zipf
   document).  Past an eighth of a large snapshot that would move much
   of a full build into the commit — a read-rule toggle on a hot label
   roots thousands of subtrees — so the patch declines and leaves the
   build to the first read; a few thousand rows' worth cost a fraction
   of a millisecond and are always patched. *)
let root_cost = 64
let patch_limit n = max (n / 8) 4096

(* A commit changes documents and decisions only inside its delta's
   subtrees, and a row outside them has its parent outside them too, so
   its byte cannot change: the rows between the subtrees are copied from
   the previous oracle, shifted by the net size change of the subtrees
   before them, and only the subtrees' rows are recomputed.  A subtree is
   one contiguous row range in either snapshot (empty where its root is
   absent), found by a search over the packed keys that starts where the
   previous root's range ended.  Row counts that do not line up between
   the snapshots mean the delta does not describe them: no patch then. *)
let patch_visibility t fl ~prev:(pfl, pvis) roots =
  let module F = Xmldoc.Flat in
  let n = F.size fl and pn = F.size pfl in
  let span f from key =
    let lo =
      gallop ~len:(F.size f)
        ~below:(fun i -> Ordpath.compare_packed (F.key f i) key < 0)
        from
    in
    if lo < F.size f && String.equal (F.key f lo) key then
      (lo, F.subtree_end f lo)
    else (lo, lo)
  in
  (* The roots' ranges in both snapshots, closed by an empty range at the
     end; [None] once they cost more than a patch may, or unless the
     roots ascend without nesting, as a normalised delta's do. *)
  let limit = patch_limit n in
  let rec spans acc cost last pfrom from = function
    | [] -> Some (List.rev (((pn, pn), (n, n)) :: acc))
    | root :: rest ->
      let key = Ordpath.pack root in
      let unordered =
        Option.fold ~none:false
          ~some:(fun last ->
            Ordpath.compare_packed last key >= 0
            || Ordpath.is_packed_prefix last key)
          last
      in
      let ((_, phi) as pspan) = span pfl pfrom key
      and ((lo, hi) as nspan) = span fl from key in
      let cost = cost + (hi - lo) + root_cost in
      if unordered || cost > limit then None
      else spans ((pspan, nspan) :: acc) cost (Some key) phi hi rest
  in
  let patch spans =
    let vis = Bytes.create n in
    let cursors = (ref 0, ref 0) in
    (* [pprev]/[prev]: where the current gap starts in each snapshot. *)
    let rec go pprev prev = function
      | [] -> true
      | ((plo, phi), (lo, hi)) :: rest ->
        plo >= pprev && lo >= prev
        && plo - pprev = lo - prev
        && begin
          Bytes.blit pvis pprev vis prev (lo - prev);
          fill_visibility t fl vis cursors lo hi;
          go phi hi rest
        end
    in
    if go 0 0 spans then Some vis else None
  in
  if Bytes.length pvis <> pn || List.length roots * root_cost > limit then None
  else Option.bind (spans [] 0 None 0 0 roots) patch

let permitted t privilege =
  Dmap.fold
    (fun id (r : Rule.t) acc ->
      if r.decision = Rule.Accept then Ordpath.Set.add id acc else acc)
    t.decisions.(privilege_index privilege)
    Ordpath.Set.empty

(* Folds the decision stores directly: the accepting entries are exactly
   the [perm] facts, already keyed in document order — no privileges ×
   nodes product. *)
let facts t doc =
  List.concat_map
    (fun privilege ->
      List.rev
        (Dmap.fold
           (fun id (r : Rule.t) acc ->
             if r.decision = Rule.Accept && Xmldoc.Document.mem doc id then
               (privilege, id) :: acc
             else acc)
           t.decisions.(privilege_index privilege)
           []))
    Privilege.all
