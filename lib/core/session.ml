type t = {
  user : string;
  policy : Policy.t;
  source : Xmldoc.Document.t;
  perm : Perm.t;
  local : bool;
      (* are all applicable rule paths downward, i.e. is delta-scoped
         invalidation sound for this session? decided once at login *)
}

exception Unknown_user of string

(* Observability (all no-ops unless enabled; see lib/obs). *)
let m_logins =
  Obs.Metrics.counter Obs.Metrics.default "session_logins_total"
    ~help:"Sessions opened (perm resolution)"

let m_queries =
  Obs.Metrics.counter Obs.Metrics.default "session_queries_total"
    ~help:"XPath queries evaluated on a session's virtual view"

let m_refresh_full =
  Obs.Metrics.counter Obs.Metrics.default "session_refresh_full_total"
    ~help:"Full perm re-resolutions (login excluded)"

let m_patch_incremental =
  Obs.Metrics.counter Obs.Metrics.default "session_patch_incremental_total"
    ~help:"Delta-scoped perm maintenance passes (Perm.update, \
           Perm.update_policy)"

let m_delta_noop =
  Obs.Metrics.counter Obs.Metrics.default "session_delta_noop_total"
    ~help:"apply_delta calls whose delta was empty"

let m_delta_widened =
  Obs.Metrics.counter Obs.Metrics.default "session_delta_widened_total"
    ~help:"apply_delta calls widened to a full refresh because the \
           session's rules are not all downward"

let h_login =
  Obs.Metrics.histogram Obs.Metrics.default "session_login_seconds"
    ~help:"Login latency (perm resolution)"

(* Resolution reads a snapshot: the caller's, or one frozen here
   (outside the [flat.freeze] span, which counts the snapshots a server
   publishes). *)
let snapshot ?flat source =
  match flat with Some fl -> fl | None -> Xmldoc.Flat.of_document source

let login ?flat policy source ~user =
  if not (Subject.mem (Policy.subjects policy) user) then
    raise (Unknown_user user);
  Obs.Metrics.time h_login (fun () ->
      Obs.Trace.with_span "session.login" (fun () ->
          Obs.Trace.annotate "user" user;
          let flat = snapshot ?flat source in
          let perm =
            Obs.Trace.with_span "perm.compute" (fun () ->
                Perm.compute policy flat ~user)
          in
          let local = Delta.local_rules (Policy.rules_for policy ~user) in
          Obs.Metrics.inc m_logins;
          if Obs.Audit.enabled () then
            Obs.Audit.record Obs.Audit.default ~user ~action:"login"
              ~detail:(if local then "delta-local" else "non-local rules")
              Obs.Audit.Allowed;
          { user; policy; source; perm; local }))

(* Equivalence-class sharing (see Perm.profile): a member session is the
   representative's record with only the identity swapped — the perm
   store and the source are shared physically, so an impersonated
   session costs one small record, not a login. *)
let impersonate t ~user =
  if String.equal user t.user then t
  else begin
    if not (Subject.mem (Policy.subjects t.policy) user) then
      raise (Unknown_user user);
    { t with user; perm = Perm.with_user t.perm user }
  end

let user t = t.user
let policy t = t.policy
let source t = t.source
let perm t = t.perm
let policy_local t = t.local

(* The view is virtual: derived here only for the callers that want the
   whole document (display, the Datalog parity, tests). *)
let view t =
  Obs.Trace.with_span "view.derive" (fun () ->
      View.derive (Xmldoc.Flat.of_document t.source) t.perm)

let holds t privilege id = Perm.holds t.perm privilege id

let user_vars t = [ ("USER", Xpath.Value.Str t.user) ]

let query_expr t expr =
  Obs.Metrics.inc m_queries;
  Obs.Trace.with_span "query.eval" (fun () ->
      Xpath.Eval.select
        (Xpath.Eval.env_of_source ~vars:(user_vars t)
           (View.source t.source t.perm))
        expr)

let query t src =
  Obs.Trace.with_span "session.query" (fun () ->
      let expr =
        Obs.Trace.with_span "xpath.parse" (fun () ->
            Xpath.Parser.parse_path src)
      in
      let ids = query_expr t expr in
      if Obs.Audit.enabled () then
        Obs.Audit.record Obs.Audit.default ~user:t.user ~action:"query"
          ~privilege:"read" ~target:src
          ~detail:(Printf.sprintf "%d node(s) on the view" (List.length ids))
          Obs.Audit.Allowed;
      ids)

let query_source t src =
  Xpath.Eval.select_str ~vars:(user_vars t) t.source src

let refresh ?(quiet = false) ?flat t source =
  if not quiet then Obs.Metrics.inc m_refresh_full;
  Obs.Trace.with_span "session.refresh" (fun () ->
      Obs.Trace.annotate "user" t.user;
      let flat = snapshot ?flat source in
      let perm =
        Obs.Trace.with_span "perm.compute" (fun () ->
            Perm.compute t.policy flat ~user:t.user)
      in
      { t with source; perm })

(* The applicable rules the view depends on: axioms 15-17 read only the
   read and position decisions. *)
let view_rules rules =
  List.filter
    (fun (r : Rule.t) ->
      match r.privilege with
      | Privilege.Read | Privilege.Position -> true
      | Privilege.Insert | Privilege.Update | Privilege.Delete -> false)
    rules

(* Policy churn: the source is unchanged, the rule list is not.  The
   perm store hands back exactly the delta it re-resolved, which is what
   a lazy view over the session must invalidate; a session whose
   applicable rules are untouched pays two list comparisons.  When only
   write rules moved, the read and position decisions -- and with them
   the view -- cannot have changed, so the delta is empty.  [quiet]
   serves Txn staging like in {!apply_delta}: an aborted transaction
   must leave the registry bit-for-bit untouched. *)
let apply_policy ?(quiet = false) ?flat t policy =
  if t.policy == policy then (t, Delta.empty)
  else begin
    let count c = if not quiet then Obs.Metrics.inc c in
    let old_rules = Policy.rules_for t.policy ~user:t.user
    and rules = Policy.rules_for policy ~user:t.user in
    let perm, delta =
      Obs.Trace.with_span "perm.update_policy" (fun () ->
          Perm.update_policy ?flat t.perm ~old_policy:t.policy policy t.source)
    in
    let delta =
      if List.equal Rule.equal (view_rules old_rules) (view_rules rules) then
        Delta.empty
      else delta
    in
    count
      (match delta with
       | Delta.Local [] -> m_delta_noop
       | Delta.All -> m_refresh_full
       | Delta.Local _ -> m_patch_incremental);
    ({ t with policy; perm; local = Delta.local_rules rules }, delta)
  end

(* An empty delta changed no document fact, so no decision either,
   whatever the rules; any other delta of a non-downward session widens
   to a full refresh. *)
let apply_delta ?(quiet = false) ?flat ?matched t source delta =
  let count c = if not quiet then Obs.Metrics.inc c in
  let delta =
    match delta with
    | Delta.Local (_ :: _) when not t.local ->
      count m_delta_widened;
      Delta.all
    | Delta.Local _ | Delta.All -> delta
  in
  match delta with
  | Delta.All -> refresh ~quiet ?flat t source
  | Delta.Local [] ->
    count m_delta_noop;
    { t with source }
  | Delta.Local _ ->
    count m_patch_incremental;
    Obs.Trace.with_span "session.apply_delta" (fun () ->
        Obs.Trace.annotate "user" t.user;
        let perm =
          Obs.Trace.with_span "perm.update" (fun () ->
              Perm.update ?flat ?matched t.perm t.policy source delta)
        in
        { t with source; perm })
