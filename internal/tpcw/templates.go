package tpcw

// Templates returns the Django-style template sources for the 14 TPC-W
// web interactions. Every page extends base.html (banner, search box,
// footer) and renders its data context — the same presentation/content
// split Figure 3 of the paper illustrates.
func Templates() map[string]string {
	return map[string]string{
		"base.html": `<html>
<head><title>TPC-W Bookstore - {% block title %}Welcome{% endblock %}</title></head>
<body>
<img src="/img/banner.gif" alt="TPC-W bookstore">
{% include "navbar.html" %}
<hr>
{% block content %}{% endblock %}
<hr>
{% include "footer.html" %}
</body>
</html>`,

		"navbar.html": `<div class="nav">
<a href="/home{% if c_id %}?c_id={{ c_id }}{% endif %}">Home</a> |
<a href="/search_request">Search</a> |
<a href="/shopping_cart">Cart</a> |
<a href="/order_inquiry">Order Status</a>
</div>`,

		"footer.html": `<div class="footer"><img src="/img/footer.gif" alt=""> TPC-W transactional web e-commerce benchmark bookstore.</div>`,

		"promo.html": `<div class="promo">
{% for p in promotions %}
<a href="/product_detail?i_id={{ p.i_id }}"><img src="{{ p.i_thumbnail }}" alt="{{ p.i_title }}"></a>
{% endfor %}
</div>`,

		"home.html": `{% extends "base.html" %}
{% block title %}Home{% endblock %}
{% block content %}
{% if c_fname %}<h2>Welcome back, {{ c_fname }} {{ c_lname }}!</h2>{% else %}<h2>Welcome to the TPC-W Bookstore</h2>{% endif %}
{% include "promo.html" %}
<ul>
{% for s in subjects %}
<li><a href="/new_products?subject={{ s|urlencode }}">{{ s|title }}</a></li>
{% endfor %}
</ul>
{% endblock %}`,

		"shopping_cart.html": `{% extends "base.html" %}
{% block title %}Shopping Cart{% endblock %}
{% block content %}
<h2>Shopping Cart {{ sc_id }}</h2>
<table border="1">
<tr><th>Item</th><th>Qty</th><th>Cost</th><th>Subtotal</th></tr>
{% for line in lines %}
<tr>
<td><a href="/product_detail?i_id={{ line.i_id }}">{{ line.i_title }}</a></td>
<td>{{ line.scl_qty }}</td>
<td>${{ line.i_cost|floatformat:2 }}</td>
<td>${{ line.subtotal|floatformat:2 }}</td>
</tr>
{% empty %}
<tr><td colspan="4">Your cart is empty.</td></tr>
{% endfor %}
</table>
<p>Subtotal: ${{ sc_sub_total|floatformat:2 }}</p>
<p><a href="/customer_registration?sc_id={{ sc_id }}">Checkout</a></p>
{% include "promo.html" %}
{% endblock %}`,

		"customer_registration.html": `{% extends "base.html" %}
{% block title %}Customer Registration{% endblock %}
{% block content %}
<h2>Checkout: who are you?</h2>
<form action="/buy_request" method="get">
<input type="hidden" name="sc_id" value="{{ sc_id }}">
Returning customer: <input name="uname"> password <input name="passwd" type="password">
<br>Or register as a new customer.
<input type="submit" value="Continue">
</form>
{% endblock %}`,

		"buy_request.html": `{% extends "base.html" %}
{% block title %}Buy Request{% endblock %}
{% block content %}
<h2>Confirm your purchase</h2>
<p>Customer: {{ c_fname }} {{ c_lname }} ({{ c_uname }}), discount {{ c_discount|floatformat:2 }}</p>
<p>Billing address: {{ addr_street1 }}, {{ addr_city }}, {{ addr_state }} {{ addr_zip }}, {{ co_name }}</p>
<table border="1">
{% for line in lines %}
<tr><td>{{ line.i_title }}</td><td>{{ line.scl_qty }}</td><td>${{ line.subtotal|floatformat:2 }}</td></tr>
{% endfor %}
</table>
<p>Subtotal: ${{ sc_sub_total|floatformat:2 }} Tax: ${{ tax|floatformat:2 }} Total: ${{ total|floatformat:2 }}</p>
<form action="/buy_confirm" method="get">
<input type="hidden" name="sc_id" value="{{ sc_id }}">
<input type="hidden" name="c_id" value="{{ c_id }}">
<input type="submit" value="Buy">
</form>
{% endblock %}`,

		"buy_confirm.html": `{% extends "base.html" %}
{% block title %}Order Confirmation{% endblock %}
{% block content %}
<h2>Thank you for your order!</h2>
<p>Order number: <b>{{ o_id }}</b></p>
<p>Total charged: ${{ total|floatformat:2 }}</p>
<p>Your order will ship via {{ ship_type }} within one week.</p>
{% endblock %}`,

		"order_inquiry.html": `{% extends "base.html" %}
{% block title %}Order Inquiry{% endblock %}
{% block content %}
<h2>Check your last order</h2>
<form action="/order_display" method="get">
Username: <input name="uname"> Password: <input name="passwd" type="password">
<input type="submit" value="Display last order">
</form>
{% endblock %}`,

		"order_display.html": `{% extends "base.html" %}
{% block title %}Order Display{% endblock %}
{% block content %}
{% if o_id %}
<h2>Order {{ o_id }} placed {{ o_date }}</h2>
<p>Status: {{ o_status }}, ship via {{ o_ship_type }}</p>
<table border="1">
{% for line in lines %}
<tr><td><a href="/product_detail?i_id={{ line.ol_i_id }}">{{ line.i_title }}</a></td>
<td>{{ line.ol_qty }}</td><td>${{ line.i_cost|floatformat:2 }}</td></tr>
{% endfor %}
</table>
<p>Total: ${{ o_total|floatformat:2 }}</p>
{% else %}
<h2>No orders found for that customer.</h2>
{% endif %}
{% endblock %}`,

		"search_request.html": `{% extends "base.html" %}
{% block title %}Search{% endblock %}
{% block content %}
<h2>Search the store</h2>
<form action="/execute_search" method="get">
<select name="field">
<option value="title">Title</option>
<option value="author">Author</option>
<option value="subject">Subject</option>
</select>
<input name="terms">
<input type="submit" value="Search">
</form>
{% include "promo.html" %}
{% endblock %}`,

		"execute_search.html": `{% extends "base.html" %}
{% block title %}Search Results{% endblock %}
{% block content %}
<h2>Results for "{{ terms }}" in {{ field }}</h2>
<table border="1">
{% for r in results %}
<tr>
<td><a href="/product_detail?i_id={{ r.i_id }}"><img src="{{ r.i_thumbnail }}" alt=""></a></td>
<td><a href="/product_detail?i_id={{ r.i_id }}">{{ r.i_title }}</a></td>
<td>{{ r.a_fname }} {{ r.a_lname }}</td>
<td>${{ r.i_cost|floatformat:2 }}</td>
</tr>
{% empty %}
<tr><td>No items matched.</td></tr>
{% endfor %}
</table>
{% endblock %}`,

		"new_products.html": `{% extends "base.html" %}
{% block title %}New Products{% endblock %}
{% block content %}
<h2>New {{ subject|title }} releases</h2>
<table border="1">
{% for r in results %}
<tr>
<td><a href="/product_detail?i_id={{ r.i_id }}"><img src="{{ r.i_thumbnail }}" alt=""></a></td>
<td><a href="/product_detail?i_id={{ r.i_id }}">{{ r.i_title }}</a></td>
<td>{{ r.a_fname }} {{ r.a_lname }}</td>
<td>{{ r.i_pub_date }}</td>
<td>${{ r.i_cost|floatformat:2 }}</td>
</tr>
{% endfor %}
</table>
{% endblock %}`,

		"best_sellers.html": `{% extends "base.html" %}
{% block title %}Best Sellers{% endblock %}
{% block content %}
<h2>Best selling {{ subject|title }} books</h2>
<table border="1">
<tr><th></th><th>Title</th><th>Author</th><th>Sold</th><th>Price</th></tr>
{% for r in results %}
<tr>
<td>{{ forloop.counter }}</td>
<td><a href="/product_detail?i_id={{ r.i_id }}">{{ r.i_title }}</a></td>
<td>{{ r.a_fname }} {{ r.a_lname }}</td>
<td>{{ r.qty }}</td>
<td>${{ r.i_cost|floatformat:2 }}</td>
</tr>
{% endfor %}
</table>
{% endblock %}`,

		// item is the one-row result of the page's lookup, walked where it
		// is: the loops run once and bind the row.
		"product_detail.html": `{% extends "base.html" %}
{% block title %}{% for i in item %}{{ i.i_title }}{% endfor %}{% endblock %}
{% block content %}{% for i in item %}
<h2>{{ i.i_title }}</h2>
<img src="{{ i.i_image }}" alt="{{ i.i_title }}">
<p>By {{ i.a_fname }} {{ i.a_lname }}</p>
<p>Subject: {{ i.i_subject|title }} | Published {{ i.i_pub_date }}</p>
<p>{{ i.i_desc }}</p>
<p>SRP: ${{ i.i_srp|floatformat:2 }} <b>Our price: ${{ i.i_cost|floatformat:2 }}</b> ({{ i.i_stock }} in stock)</p>
<form action="/shopping_cart" method="get">
<input type="hidden" name="i_id" value="{{ i.i_id }}">
<input type="submit" value="Add to cart">
</form>
{% endfor %}{% endblock %}`,

		"admin_request.html": `{% extends "base.html" %}
{% block title %}Admin Request{% endblock %}
{% block content %}{% for i in item %}
<h2>Edit item {{ i.i_id }}</h2>
<p>{{ i.i_title }} — current price ${{ i.i_cost|floatformat:2 }}</p>
<img src="{{ i.i_image }}" alt="">
<form action="/admin_response" method="get">
<input type="hidden" name="i_id" value="{{ i.i_id }}">
New cost: <input name="cost" value="{{ i.i_cost|floatformat:2 }}">
New image: <input name="image" value="{{ i.i_image }}">
<input type="submit" value="Update">
</form>
{% endfor %}{% endblock %}`,

		"admin_response.html": `{% extends "base.html" %}
{% block title %}Admin Confirm{% endblock %}
{% block content %}
<h2>Item {{ i_id }} updated</h2>
<p>{{ i_title }} now costs ${{ i_cost|floatformat:2 }}.</p>
<p>Related items recomputed: {{ related|join:", " }}</p>
{% endblock %}`,
	}
}
